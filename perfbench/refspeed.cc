#include "refspeed.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <ctime>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace afc::perfbench {

namespace {

constexpr std::size_t kTableSlots = std::size_t{1} << 22;  // 32 MiB of uint64
constexpr std::size_t kHeapEntries = 256;
constexpr int kSteps = 1500000;
// Results land here so the compiler cannot drop the kernel.
volatile std::uint64_t g_sink = 0;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

/// Steps per CPU second of the kernel, in the calling process.
double kernel_rate() {
  std::vector<std::uint64_t> t(kTableSlots);
  for (std::size_t i = 0; i < t.size(); i++) t[i] = mix(i);
  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, key)
  std::vector<Event> storage;
  storage.reserve(kHeapEntries + 1);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap(std::greater<>{},
                                                                      std::move(storage));
  for (std::uint64_t i = 0; i < kHeapEntries; i++) heap.push({mix(i) % 1024, mix(i + 7)});

  const double t0 = cpu_s();
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; i++) {
    const auto [when, key] = heap.top();
    heap.pop();
    std::uint64_t& slot = t[key & (kTableSlots - 1)];
    acc += slot;
    slot = mix(slot ^ when);
    heap.push({when + 1 + (slot & 1023), mix(key + slot)});
  }
  const double dt = cpu_s() - t0;
  g_sink = g_sink + acc;
  return double(kSteps) / dt;
}

}  // namespace

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double reference_rate() {
  // A child process on the caller's CPU runs the kernel, so its table never
  // counts toward this process's peak RSS.
  const int cpu = sched_getcpu();
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0.0;
  }
  if (pid == 0) {
    close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    const double rate = kernel_rate();
    const bool sent = write(fds[1], &rate, sizeof(rate)) == ssize_t(sizeof(rate));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double rate = 0.0;
  const bool got = read(fds[0], &rate, sizeof(rate)) == ssize_t(sizeof(rate));
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0 ? rate : 0.0;
}

}  // namespace afc::perfbench
