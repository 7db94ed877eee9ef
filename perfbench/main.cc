// AFCeph benchmark program: runs one named closed-loop workload through the
// public core::ClusterSim API and prints every metric by name with its unit,
// then one JSON result line. See perfbench/README.md.
//
//   afc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0: end-to-end metrics. The workload is set up and run repeatedly
//   with the same seed for --seconds of host time; host metrics are medians
//   over those repetitions, scaled to a reference machine speed
//   (refspeed.h); simulated metrics must repeat exactly.
// --trace 1: per-layer metrics. An untraced run, a traced run (span
//   collector + event-loop profiler) and untraced repeats for --seconds, all
//   with the same simulated results, then host-time microbenchmarks of each
//   layer fed with the workload's input shapes.
//
// Exits 1 when an output check fails (failed or unverified ops, ops left
// unresolved, a digest that differs between runs of one seed, a dropped
// span, a percentile the sample cannot support, or a reference-kernel run
// that failed), 2 on bad arguments.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stage_names.h"
#include "core/cluster_sim.h"
#include "fs/filestore.h"
#include "store/flashstore/flashstore.h"
#include "layers.h"
#include "refspeed.h"
#include "spans.h"

namespace afc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Tune against the default seed; recheck a claim on the held-out one.
constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kHeldOutSeed = 7919;
constexpr int kSetupsPerRun = 3;
// Seeded windows per end-to-end run; simulated metrics are their medians.
constexpr int kWindows = 5;
constexpr std::size_t kCovBucketMs = 5;

/// Cluster seed of window `i` of a run with seed `seed`; window 0 is the
/// seed itself, which is also the one the traced pass runs.
std::uint64_t window_seed(std::uint64_t seed, int i) {
  return seed + 0x9e3779b97f4a7c15ull * std::uint64_t(i);
}

// 128 closed loops reach steady state within a few ms; 100 ms is ample.
constexpr Time kWarmup = 100 * kMillisecond;

struct Workload {
  const char* name;
  double write_fraction;
  double zipf_theta;
  bool verify;
  bool sustained;  // false: clean devices, data pre-populated
  store::Backend backend;
  Time runtime;  // measurement window
};

// 16 VMs x iodepth 8 closed loops, Profile::afceph(), 4 OSD nodes x 4 OSDs,
// replication 2, 4 KiB blocks. A window costs a few host seconds; reads are
// cheapest to simulate, so their window is longer. README.md says why each
// workload is here.
const Workload kWorkloads[] = {
    {"randwrite_file", 1.0, 0.0, false, true, store::Backend::kFile, 300 * kMillisecond},
    {"randwrite_flash", 1.0, 0.0, false, true, store::Backend::kFlash, 300 * kMillisecond},
    {"randread_clean", 0.0, 0.0, false, false, store::Backend::kFile, 500 * kMillisecond},
    {"mixed_zipf", 0.3, 0.99, true, true, store::Backend::kFile, 300 * kMillisecond},
};

core::ClusterConfig make_config(const Workload& w, std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 4;
  cfg.osds_per_node = 4;
  cfg.replication = 2;
  cfg.vms = 16;
  cfg.sustained = w.sustained;
  cfg.populated = w.sustained ? -1 : 1;
  cfg.store_backend = w.backend;
  cfg.seed = seed;
  return cfg;
}

client::WorkloadSpec make_spec(const Workload& w) {
  client::WorkloadSpec spec = client::WorkloadSpec::rand_write(4096, 8);
  spec.write_fraction = w.write_fraction;
  spec.zipf_theta = w.zipf_theta;
  spec.verify = w.verify;
  spec.warmup = kWarmup;
  spec.runtime = w.runtime;
  return spec;
}

// --- one set-up + run ------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOut {
  double run_s = 0.0;  // host CPU seconds driving the workload to the window end
  core::RunResult r;
  std::uint64_t events = 0;        // executed by the end of the window
  std::uint64_t ops_resolved = 0;  // client ops resolved by the end of the window
  std::size_t page_cache_pages = 0;  // one OSD's page-cache capacity
  std::uint64_t digest = 0;
  std::uint64_t ops_begun = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t unresolved = 0;  // ops begun but never resolved, after draining
  std::vector<Metric> counts;    // per-layer counts, read at the end of the window
  Counters profile;              // event-loop profiler (traced run only)
  std::vector<double> per_ms;    // client completions per ms of the window
};

/// FNV-1a over the simulated results: event count, end time, latency
/// histograms and per-interval IOPS of both op types, verify failures.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; i++) h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const Histogram& h) {
    add(h.count());
    add(h.min());
    add(h.max());
    add(h.mean());
    for (double q : {0.5, 0.9, 0.99, 0.999}) add(h.percentile(q));
  }
  void add(const TimeSeries& s) {
    add(std::uint64_t(s.size()));
    for (std::size_t i = 0; i < s.size(); i++) add(s.value(i));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Public counters of every layer at the end of the measurement window, per
/// client op where that is the natural base; `ops` is the client ops resolved
/// by then, warm-up included.
std::vector<Metric> layer_counts(core::ClusterSim& sim, const core::RunResult& r, double ops,
                                 double client_writes) {
  std::vector<Metric> c;
  auto add = [&](const char* name, double value, const char* unit) {
    c.push_back(Metric{name, value, unit});
  };
  const Time now = sim.simulation().now();
  add("sim.events_per_op", ratio(double(sim.simulation().executed_events()), ops), "1/op");

  double busy = 0.0, wait = 0.0, cores = 0.0;
  for (unsigned n = 0; n < sim.config().osd_nodes; n++) {
    const sim::CpuPool& cpu = sim.osd_node(n).cpu();
    busy += double(cpu.busy_ns());
    wait += double(cpu.total_queue_wait_ns());
    cores += double(cpu.cores());
  }
  add("sim.osd_cpu_util", ratio(busy, double(now) * cores), "ratio");
  add("sim.osd_cpu_wait_us_per_op", ratio(wait / 1e3, ops), "us/op");

  add("net.msgs_per_op", ratio(double(r.net_messages), ops), "1/op");
  add("net.frames_per_op", ratio(double(r.net_frames), ops), "1/op");
  add("net.nagle_stalls", double(r.net_nagle_stalls), "count");

  add("osd.pg_lock_wait_us_per_op", ratio(double(r.pg_lock_wait_ns) / 1e3, ops), "us/op");
  add("osd.pg_lock_contended_per_op", ratio(double(r.pg_lock_contended), ops), "1/op");
  add("osd.pending_defers_per_op", ratio(double(r.pending_defers), ops), "1/op");

  double entries = 0.0, batches = 0.0, osd_reads = 0.0, ssd_reads = 0.0;
  double compactions = 0.0, cache_hits = 0.0, cache_lookups = 0.0;
  double ssd_bytes = 0.0, ssd_util = 0.0, gc_stalls = 0.0;
  for (std::size_t i = 0; i < sim.osd_count(); i++) {
    osd::Osd& o = sim.osd(i);
    entries += double(o.journal().entries_written());
    batches += double(o.journal().batches_written());
    osd_reads += double(o.client_reads());
    compactions += double(o.omap_db().compactions());
    cache_hits += double(o.omap_db().block_cache_hits());
    cache_lookups += double(o.omap_db().block_cache_hits() + o.omap_db().block_cache_misses());
    const dev::SsdModel& ssd = sim.osd_ssd(i);
    ssd_reads += double(ssd.reads());
    ssd_bytes += double(ssd.bytes_written());
    ssd_util += ssd.utilization();
    gc_stalls += double(ssd.gc_stalls());
  }
  add("fs.journal_entries_per_batch", ratio(entries, batches), "entries/batch");
  add("fs.journal_full_stalls", double(r.journal_full_stalls), "count");
  add("fs.syscalls_per_write", ratio(double(r.syscalls), client_writes), "1/write");
  add("fs.writeback_stalls", double(r.fs_writeback_stalls), "count");
  // Data reads go through PageCache::missing_pages(), which counts nothing,
  // so the miss ratio is device reads per OSD client read (README.md).
  add("fs.data_miss_ratio", ratio(ssd_reads, osd_reads), "ratio");

  add("kv.write_amp", r.kv_write_amplification, "B/B");
  add("kv.compactions", compactions, "count");
  add("kv.block_cache_hit_ratio", ratio(cache_hits, cache_lookups), "ratio");
  add("kv.stall_slowdowns", double(r.kv_stall_slowdowns), "count");

  add("device.ssd_write_bytes_per_user_byte", ratio(ssd_bytes, client_writes * 4096.0), "B/B");
  add("device.ssd_util", ratio(ssd_util, double(sim.osd_count())), "ratio");
  add("device.gc_stalls", gc_stalls, "count");
  return c;
}

/// Run the simulation past the workload's stop time until every client op
/// begun has resolved (acked, replied or failed); at most 2 simulated s.
void drain(core::ClusterSim& sim) {
  sim::Simulation& s = sim.simulation();
  const Time limit = s.now() + 2 * kSecond;
  auto settled = [&] {
    for (std::size_t v = 0; v < sim.vm_count(); v++) {
      if (sim.vm(v).ops_begun() != sim.vm(v).ops_resolved()) return false;
    }
    return true;
  };
  while (!settled() && s.now() < limit) s.run_until(s.now() + kMillisecond);
}

/// The OSD's page cache, whichever store backs it.
fs::PageCache& page_cache(osd::Osd& o) {
  if (auto* file = dynamic_cast<fs::FileStore*>(&o.store())) return file->page_cache();
  return dynamic_cast<store::FlashStore&>(o.store()).page_cache();
}

/// Sustained state means a long-running cluster, whose OSD page caches are
/// full of older, cold data; a run a few hundred simulated ms long would
/// otherwise never fill them, and never evict. Fill them with seeded keys
/// the workload never touches. Clean state starts with empty caches.
void warm_page_caches(core::ClusterSim& sim, std::uint64_t seed) {
  if (!sim.config().sustained) return;
  Rng rng(seed ^ 0xcac4e5eedull);
  for (std::size_t i = 0; i < sim.osd_count(); i++) {
    fs::PageCache& pc = page_cache(sim.osd(i));
    while (pc.size() < pc.capacity()) pc.insert(rng.next() | 1, rng.uniform_int(0, 1023));
  }
}

RunOut run_once(const Workload& w, std::uint64_t seed, trace::Collector* tracer) {
  RunOut out;
  trace::Collector::install(tracer);
  auto sim = std::make_unique<core::ClusterSim>(make_config(w, seed));
  warm_page_caches(*sim, seed);
  out.page_cache_pages = page_cache(sim->osd(0)).capacity();
  const double t1 = cpu_s();
  if (tracer != nullptr) sim->simulation().enable_profiling();
  // The steps of ClusterSim::run(), driven here so the stats sink outlives
  // the measurement window: run() keeps its RunStats on its own stack, and
  // ops still in flight when it returns would record into a dead frame, so
  // the simulation could never be drained after it (README.md, known gaps).
  const client::WorkloadSpec spec = make_spec(w);
  client::RunStats stats;
  stats.window_start = sim->simulation().now() + spec.warmup;
  stats.window_end = stats.window_start + spec.runtime;
  for (std::size_t v = 0; v < sim->vm_count(); v++) {
    sim->vm(v).start(spec, stats.window_end, &stats);
  }
  // Advance in 1 ms steps (no events are added, so the event order is
  // unchanged) to count completions per ms of the measurement window.
  auto completed = [&] {
    std::uint64_t n = 0;
    for (std::size_t v = 0; v < sim->vm_count(); v++) n += sim->vm(v).completed();
    return n;
  };
  std::uint64_t last = 0;
  for (Time t = sim->simulation().now() + kMillisecond; t <= stats.window_end; t += kMillisecond) {
    sim->simulation().run_until(t);
    if (t <= stats.window_start) {
      last = completed();
      continue;
    }
    const std::uint64_t now_done = completed();
    out.per_ms.push_back(double(now_done - last));
    last = now_done;
  }
  const double t2 = cpu_s();
  out.r.write_iops = stats.write_iops();
  out.r.read_iops = stats.read_iops();
  out.r.write_lat = stats.write_lat;
  out.r.read_lat = stats.read_lat;
  out.r.write_series = stats.write_series;
  out.r.read_series = stats.read_series;
  out.r.verify_failures = stats.verify_failures;
  sim->collect_osd_stats(out.r);
  trace::Collector::install(nullptr);
  out.run_s = t2 - t1;
  out.events = sim->simulation().executed_events();

  Digest d;
  d.add(out.events);
  d.add(std::uint64_t(sim->simulation().now()));
  d.add(out.r.write_lat);
  d.add(out.r.read_lat);
  d.add(out.r.write_series);
  d.add(out.r.read_series);
  d.add(out.r.verify_failures);
  out.digest = d.value();

  double resolved = 0.0, retries = 0.0;
  for (std::size_t v = 0; v < sim->vm_count(); v++) {
    resolved += double(sim->vm(v).ops_resolved());
    retries += double(sim->vm(v).op_retries());
  }
  double client_writes = 0.0;
  for (std::size_t i = 0; i < sim->osd_count(); i++) {
    client_writes += double(sim->osd(i).client_writes());
  }
  out.ops_resolved = std::uint64_t(resolved);
  out.counts = layer_counts(*sim, out.r, resolved, client_writes);
  out.counts.push_back(Metric{"sim.events_per_host_s", ratio(double(out.events), out.run_s),
                              "events/s"});
  if (tracer != nullptr) sim->simulation().profile_into(out.profile);

  drain(*sim);
  out.r.verify_failures = stats.verify_failures;  // reads verified while draining too
  for (std::size_t v = 0; v < sim->vm_count(); v++) {
    const client::VmClient& vm = sim->vm(v);
    out.ops_begun += vm.ops_begun();
    out.ops_failed += vm.ops_failed();
    out.unresolved += vm.ops_begun() - vm.ops_resolved();
  }
  out.counts.push_back(
      Metric{"client.retries_per_op", ratio(retries, double(out.ops_begun)), "1/op"});
  return out;
}

// --- reporting --------------------------------------------------------------

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
    std::printf("%-40s %14.6f %s\n", name.c_str(), value, unit);
  }
  /// A line for the reader only (not in the JSON result).
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
  }
  void fail(const std::string& why) {
    failures_.push_back(why);
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  bool ok() const { return failures_.empty(); }

  void print_json(std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                ok() ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); i++) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Process high-water RSS (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Checks every run must pass: no failed or unverified op, and nothing left
/// unresolved once the run has drained.
void check_run(Report& rep, const RunOut& run, const char* what) {
  if (run.ops_failed + run.r.verify_failures > 0) {
    rep.fail(std::string(what) + ": " + std::to_string(run.ops_failed) + " failed ops, " +
             std::to_string(run.r.verify_failures) + " verify failures");
  }
  if (run.unresolved > 0) {
    rep.fail(std::string(what) + ": " + std::to_string(run.unresolved) +
             " ops begun but never resolved");
  }
}

/// Latency in ms at quantile `q`, interpolated by rank inside the histogram
/// bucket that holds it. Histogram::percentile() returns the bucket's
/// midpoint, which reads the same across seeds and hides changes smaller
/// than a bucket; Histogram's buckets are 64 linear sub-buckets per power of
/// two, so a midpoint m spans 2^(bit_width(m) - 6) ns.
double quantile_ms(const Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n < 2) return double(h.percentile(q)) / double(kMillisecond);
  // Histogram::percentile(q) reads rank floor(q * (n - 1)) + 1.
  auto at_rank = [&](std::uint64_t t) { return h.percentile((double(t) - 0.5) / double(n - 1)); };
  const std::uint64_t rank = std::uint64_t(q * double(n - 1)) + 1;
  const std::uint64_t mid = at_rank(rank);
  std::uint64_t lo = 1, hi = rank;  // first rank in the bucket
  while (lo < hi) {
    const std::uint64_t m = (lo + hi) / 2;
    if (at_rank(m) < mid) lo = m + 1; else hi = m;
  }
  const std::uint64_t first = lo;
  lo = rank, hi = n;  // last rank in the bucket
  while (lo < hi) {
    const std::uint64_t m = (lo + hi + 1) / 2;
    if (at_rank(m) > mid) hi = m - 1; else lo = m;
  }
  const std::uint64_t last = lo;
  const int magnitude = int(std::bit_width(mid)) - 6;
  if (magnitude <= 0) return double(mid) / double(kMillisecond);
  const double width = double(std::uint64_t(1) << magnitude);
  const double bucket_lo = double(mid) - width / 2.0;
  const double frac = (double(rank - first) + 0.5) / double(last - first + 1);
  return (bucket_lo + width * frac) / double(kMillisecond);
}

/// p99.9 is reported only when at least ten samples lie beyond it.
bool supports_p999(std::uint64_t samples) { return samples >= 10000; }

/// Coefficient of variation of IOPS over `bucket_ms` intervals of the
/// measurement window — the paper's "fluctuation".
double iops_cov(const std::vector<double>& per_ms, std::size_t bucket_ms) {
  std::vector<double> v;
  for (std::size_t i = 0; i + bucket_ms <= per_ms.size(); i += bucket_ms) {
    double n = 0.0;
    for (std::size_t j = 0; j < bucket_ms; j++) n += per_ms[i + j];
    v.push_back(n);
  }
  if (v.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= double(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= double(v.size() - 1);
  return mean == 0.0 ? 0.0 : std::sqrt(var) / mean;
}

int end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Report rep;
  const auto start = Clock::now();
  const client::WorkloadSpec spec = make_spec(w);
  const double window_s = double(spec.runtime) / double(kSecond);
  // Host time moves with the load that other tenants put on the machine, so
  // a reference-kernel timing (refspeed.h) flanks every run, and the host
  // metrics are scaled to kReferenceNominalRate by the median reference rate.
  // Set-up takes a few ms, so it is timed on its own: kSetupsPerRun
  // constructions before every run.
  struct HostSample {
    std::vector<double> setup_s;
    double run_s;
    double ops;  // client ops completed in the measurement window
  };
  std::vector<HostSample> host;
  std::vector<double> refs{reference_rate()};
  std::uint64_t attempted = 0, failed = 0;
  auto run = [&](std::uint64_t cluster_seed) {
    HostSample h;
    for (int i = 0; i < kSetupsPerRun; i++) {
      const double t0 = cpu_s();
      auto sim = std::make_unique<core::ClusterSim>(make_config(w, cluster_seed));
      h.setup_s.push_back(cpu_s() - t0);
    }
    RunOut out = run_once(w, cluster_seed, nullptr);
    refs.push_back(reference_rate());
    h.run_s = out.run_s;
    h.ops = (out.r.write_iops + out.r.read_iops) * window_s;
    host.push_back(h);
    attempted += out.ops_begun;
    failed += out.ops_failed + out.r.verify_failures;
    return out;
  };

  // kWindows seeded windows give the simulated metrics; repeating them
  // until `seconds` have passed checks determinism and adds host samples.
  std::vector<RunOut> windows;
  for (int i = 0; i < kWindows; i++) {
    windows.push_back(run(window_seed(seed, i)));
    check_run(rep, windows.back(), ("window " + std::to_string(i)).c_str());
  }
  // After a fixed amount of work, so it does not grow with the repeats.
  const double rss_mb = peak_rss_mb();
  for (int k = 0; k == 0 || std::chrono::duration<double>(Clock::now() - start).count() < seconds;
       k++) {
    const int i = k % kWindows;
    const RunOut again = run(window_seed(seed, i));
    const std::string what = "repeat of window " + std::to_string(i);
    check_run(rep, again, what.c_str());
    if (again.digest != windows[i].digest) {
      rep.fail(what + ": simulated digest differs from the first run of its seed");
    }
  }
  const bool refs_ok = *std::min_element(refs.begin(), refs.end()) > 0.0;
  if (!refs_ok) rep.fail("the reference kernel's child process failed");
  std::vector<double> raw_speed, raw_setup, run_s;
  for (const HostSample& h : host) {
    run_s.push_back(h.run_s);
    raw_speed.push_back(h.ops / h.run_s);
    raw_setup.insert(raw_setup.end(), h.setup_s.begin(), h.setup_s.end());
  }
  // Nominal-speed seconds per host second over this process.
  const double scale = refs_ok ? median(refs) / kReferenceNominalRate : 1.0;

  rep.note("workload %s seed %" PRIu64 ": %d windows of %.0f ms warm-up + %.0f ms, %zu runs",
           w.name, seed, kWindows, double(spec.warmup) / 1e6, window_s * 1e3, run_s.size());
  std::vector<double> iops, p50, p999, per_ms;
  for (int i = 0; i < kWindows; i++) {
    const RunOut& win = windows[i];
    Histogram all = win.r.write_lat;
    all.merge(win.r.read_lat);
    if (!supports_p999(all.count())) {
      rep.fail("window " + std::to_string(i) + ": " + std::to_string(all.count()) +
               " latency samples leave fewer than ten beyond p99.9");
    }
    iops.push_back(win.r.write_iops + win.r.read_iops);
    p50.push_back(quantile_ms(all, 0.5));
    p999.push_back(quantile_ms(all, 0.999));
    per_ms.insert(per_ms.end(), win.per_ms.begin(),
                  win.per_ms.begin() + std::ptrdiff_t(win.per_ms.size() / kCovBucketMs * kCovBucketMs));
    rep.note("  window %d (cluster seed %" PRIu64 ", digest %016" PRIx64
             "): %.0f ops/s, p50 %.4f ms, p99.9 %.4f ms over %" PRIu64 " samples",
             i, window_seed(seed, i), win.digest, iops.back(), p50.back(), p999.back(),
             all.count());
    for (const auto& [name, h] : {std::pair{"write", &win.r.write_lat},
                                  std::pair{"read", &win.r.read_lat}}) {
      if (h->count() == 0) continue;
      rep.note("    %s: p50 %.4f ms, p99.9 %s ms over %" PRIu64 " samples", name,
               quantile_ms(*h, 0.5),
               supports_p999(h->count()) ? std::to_string(quantile_ms(*h, 0.999)).c_str()
                                         : "refused",
               h->count());
    }
  }
  rep.note("host s per run: min %.3f median %.3f max %.3f; fail_frac %.6f (%" PRIu64
           " failed of %" PRIu64 " attempted)",
           *std::min_element(run_s.begin(), run_s.end()), median(run_s),
           *std::max_element(run_s.begin(), run_s.end()),
           ratio(double(failed), double(attempted)), failed, attempted);
  rep.note("reference rate: min %.4g median %.4g max %.4g steps/s (nominal %.4g); unscaled "
           "medians: %.1f sim ops per host s, set-up %.6f s",
           *std::min_element(refs.begin(), refs.end()), median(refs),
           *std::max_element(refs.begin(), refs.end()), kReferenceNominalRate, median(raw_speed),
           median(raw_setup));
  rep.metric("sim_ops_per_norm_host_s", median(raw_speed) / scale, "ops/s");
  rep.metric("setup_s", median(raw_setup) * scale, "s");
  rep.metric("peak_rss_mb", rss_mb, "MiB");
  rep.metric("sim_iops", median(iops), "ops/s");
  rep.metric("sim_p50_ms", median(p50), "ms");
  rep.metric("sim_p999_ms", median(p999), "ms");
  rep.metric("sim_iops_cov", iops_cov(per_ms, kCovBucketMs), "ratio");
  rep.print_json(attempted, failed);
  return rep.ok() ? 0 : 1;
}

int traced(const Workload& w, std::uint64_t seed, double seconds) {
  Report rep;
  const auto start = Clock::now();
  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const RunOut& run) {
    attempted += run.ops_begun;
    failed += run.ops_failed + run.r.verify_failures;
  };
  const RunOut plain = run_once(w, seed, nullptr);
  check_run(rep, plain, "untraced run");
  account(plain);

  // Room for every span of the run: the collector must drop none.
  const double ops = double(plain.ops_begun);
  trace::Collector tracer(trace::Collector::Config{std::size_t(ops * 48.0) + (1u << 16)});
  const RunOut tr = run_once(w, seed, &tracer);
  check_run(rep, tr, "traced run");
  account(tr);
  if (tr.digest != plain.digest) {
    rep.fail("traced run: simulated digest differs from the untraced run's");
  }
  if (tracer.spans_dropped() != 0) {
    rep.fail("trace ring dropped " + std::to_string(tracer.spans_dropped()) + " spans");
  }
  rep.note("workload %s seed %" PRIu64 ": %" PRIu64 " spans, %" PRIu64 " dropped, %" PRIu64
           " mismatched; sim digest %016" PRIx64 " (untraced %016" PRIx64 ")",
           w.name, seed, tracer.spans_recorded(), tracer.spans_dropped(), tracer.mismatched(),
           tr.digest, plain.digest);

  // Untraced repeats until `seconds` have passed: the same-seed determinism
  // check, and host samples for the base of the tracing overhead.
  std::vector<double> plain_s{plain.run_s};
  for (int k = 0; k == 0 || std::chrono::duration<double>(Clock::now() - start).count() < seconds;
       k++) {
    const RunOut again = run_once(w, seed, nullptr);
    check_run(rep, again, "untraced repeat");
    account(again);
    if (again.digest != plain.digest) {
      rep.fail("untraced repeat: simulated digest differs from the first untraced run's");
    }
    plain_s.push_back(again.run_s);
  }

  // Counts from the untraced run; profiler counts from the traced one.
  for (const Metric& m : plain.counts) rep.metric(m.name, m.value, m.unit.c_str());
  const double resolved = double(tr.ops_resolved);
  rep.metric("sim.queue_depth_hwm", double(tr.profile.get("sim.queue_depth_hwm")), "count");
  rep.metric("sim.cpu_grants_per_op", ratio(double(tr.profile.get("sim.site.cpu.grant")), resolved),
             "1/op");
  rep.metric("sim.cv_notifies_per_op",
             ratio(double(tr.profile.get("sim.site.sync.cv_notify")), resolved), "1/op");
  rep.metric("trace_overhead_frac", tr.run_s / median(plain_s) - 1.0, "ratio");
  // Unscaled, unlike the end-to-end sim_ops_per_norm_host_s.
  const double window_s = double(make_spec(w).runtime) / double(kSecond);
  rep.metric("sim_ops_per_host_s",
             (plain.r.write_iops + plain.r.read_iops) * window_s / median(plain_s), "ops/s");

  const auto stages = stage_times(tracer);
  for (const char* s : {stage::kClientIo, stage::kNetWire, stage::kDispatchThrottle,
                        stage::kWriteOp, stage::kReadOp, stage::kPgLockWait,
                        stage::kJournalThrottle, stage::kJournalWrite, stage::kFsApply,
                        stage::kKvWrite, stage::kReplication}) {
    const auto it = stages.find(s);
    const StageTime t = it == stages.end() ? StageTime{} : it->second;
    rep.metric(std::string(s) + ".mean_ms", t.mean_ms, "ms");
    rep.metric(std::string(s) + ".self_ms", t.self_ms, "ms");
  }

  const core::ClusterConfig cfg = make_config(w, seed);
  LayerShape shape;
  shape.seed = seed;
  shape.queue_depth = std::size_t(tr.profile.get("sim.queue_depth_hwm"));
  shape.node_cores = cfg.node_cores;
  shape.page_cache_pages = plain.page_cache_pages;
  shape.zipf_theta = w.zipf_theta;
  shape.vms = cfg.vms;
  shape.image_size = cfg.image_size;
  shape.pg_num = cfg.pg_num;
  shape.replication = cfg.replication;
  shape.osd_nodes = cfg.osd_nodes;
  shape.osds_per_node = cfg.osds_per_node;
  for (const auto& [name, ns] : layer_call_costs(shape)) rep.metric(name, ns, "ns");

  rep.print_json(attempted, failed);
  return rep.ok() ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "afc_perfbench: %s\n"
               "usage: afc_perfbench --workload <name> [--seed <n>] [--seconds <s>] "
               "[--trace 0|1]\ndefault seed %llu (held-out seed %llu)\nworkloads:",
               why, (unsigned long long)kDefaultSeed, (unsigned long long)kHeldOutSeed);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace
}  // namespace afc::perfbench

int main(int argc, char** argv) {
  using namespace afc::perfbench;
  if (argc % 2 == 0) usage("flags take one value each");
  const char* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (!(seconds >= 0.0 && seconds <= 3600.0)) usage("--seconds must be in [0, 3600]");
    } else if (flag == "--trace") {
      trace = int(std::strtol(value, &end, 10));
      if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (workload == nullptr) usage("--workload is required");
  // The simulator honours a few AFC_* overrides (trace, profiler, backend,
  // transport, membership); the benchmark's configuration must be the only
  // input, so they are cleared.
  for (const char* var : {"AFC_SIM_TRACE", "AFC_SIM_PROFILE", "AFC_STORE", "AFC_NET_TRANSPORT",
                          "AFC_MEMBERSHIP"}) {
    unsetenv(var);
  }
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, workload) == 0) {
      std::setvbuf(stdout, nullptr, _IOLBF, 0);
      return trace != 0 ? traced(w, seed, seconds) : end_to_end(w, seed, seconds);
    }
  }
  usage((std::string("unknown workload ") + workload).c_str());
}
