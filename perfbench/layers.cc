#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "client/rbd.h"
#include "cluster/map.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "fs/pagecache.h"
#include "fs/transaction.h"
#include "kv/memtable.h"
#include "net/messenger.h"
#include "net/profile.h"
#include "osd/osd.h"
#include "sim/cpu.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "store/extent_allocator.h"
#include "store/extent_map.h"

namespace afc::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 5;
// Results of timed calls land here so the compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Median over kBatches of host ns per call; `batch(b)` makes `calls` calls.
template <class Fn>
double ns_per_call(std::size_t calls, Fn&& batch) {
  std::vector<double> v;
  for (int b = 0; b < kBatches; b++) {
    const auto t0 = Clock::now();
    batch(b);
    const auto t1 = Clock::now();
    v.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() / double(calls));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x | 1;
}

/// (object hash, page) keys the way one workload's offsets fall on OSD
/// page caches: a VM, then a block drawn uniformly or Zipf over its image.
struct PageKey {
  std::uint64_t obj;
  std::uint64_t page;
};
std::vector<PageKey> page_keys(const LayerShape& s, std::size_t n, Rng& rng) {
  const std::uint64_t blocks = s.image_size / s.block_size;
  const std::uint64_t per_obj = 4 * kMiB / s.block_size;
  std::vector<PageKey> keys(n);
  for (auto& k : keys) {
    const std::uint64_t vm = rng.uniform_int(0, s.vms - 1);
    const std::uint64_t block =
        s.zipf_theta > 0.0 ? rng.zipf(blocks, s.zipf_theta) : rng.uniform_int(0, blocks - 1);
    k = PageKey{mix((vm << 40) ^ (block / per_obj)), block % per_obj};
  }
  return keys;
}

// --- sim: event core, CPU grants, condition-variable wakeups --------------

struct Refire {
  sim::Simulation sim;
  Rng rng;
  std::uint64_t fired = 0;
};
void refire(Refire* r) {
  r->fired++;
  r->sim.schedule_after(1 + r->rng.uniform_int(0, 100 * kMicrosecond), [r] { refire(r); });
}

double schedule_run_ns(const LayerShape& s) {
  Refire r;
  r.rng.reseed(s.seed);
  for (std::size_t i = 0; i < s.queue_depth; i++) {
    r.sim.schedule_after(r.rng.uniform_int(0, 100 * kMicrosecond), [p = &r] { refire(p); });
  }
  constexpr std::size_t kCalls = 200000;
  const double ns = ns_per_call(kCalls, [&](int) {
    for (std::size_t i = 0; i < kCalls; i++) r.sim.step();
  });
  g_sink = g_sink + r.fired;
  return ns;
}

sim::CoTask<void> cpu_worker(sim::CpuPool& cpu, Time ns, std::size_t grants) {
  for (std::size_t i = 0; i < grants; i++) co_await cpu.consume(ns);
}

double cpu_consume_ns(const LayerShape& s) {
  // Twice as many runnable coroutines as cores, so grants queue.
  constexpr std::size_t kGrants = 10000;
  const unsigned workers = 2 * s.node_cores;
  return ns_per_call(kGrants * workers, [&](int) {
    sim::Simulation sim;
    sim::CpuPool cpu(sim, s.node_cores);
    for (unsigned w = 0; w < workers; w++) {
      sim::spawn(cpu_worker(cpu, (5 + w % 7) * kMicrosecond, kGrants));
    }
    sim.run();
    g_sink = g_sink + cpu.busy_ns();
  });
}

sim::CoTask<void> cv_waiter(sim::CondVar& cv, std::size_t wakeups, std::uint64_t& woken) {
  for (std::size_t i = 0; i < wakeups; i++) {
    co_await cv.wait();
    woken++;
  }
}

double cv_notify_ns(const LayerShape&) {
  constexpr std::size_t kCalls = 200000;
  return ns_per_call(kCalls, [&](int) {
    sim::Simulation sim;
    sim::CondVar cv(sim);
    std::uint64_t woken = 0;
    sim::spawn(cv_waiter(cv, kCalls, woken));
    for (std::size_t i = 0; i < kCalls; i++) {
      cv.notify_one();
      sim.step();
    }
    g_sink = g_sink + woken;
  });
}

// --- fs: page cache, transaction encode + CRC -----------------------------

void fill(fs::PageCache& pc, Rng& rng) {
  while (pc.size() < pc.capacity()) pc.insert(mix(rng.next()), rng.uniform_int(0, 1023));
}

std::pair<double, double> pagecache_ns(const LayerShape& s) {
  constexpr std::size_t kCalls = 100000;
  Rng rng(s.seed ^ 0x5a5a);
  fs::PageCache pc(s.page_cache_pages);
  fill(pc, rng);
  // Inserts and lookups draw separate keys, so lookups hit only as often as
  // the workload's skew makes them.
  const auto inserts = page_keys(s, kCalls * kBatches, rng);
  const auto lookups = page_keys(s, kCalls * kBatches, rng);
  const double insert = ns_per_call(kCalls, [&](int b) {
    for (std::size_t i = 0; i < kCalls; i++) {
      const PageKey& k = inserts[std::size_t(b) * kCalls + i];
      pc.insert(k.obj, k.page);
    }
  });
  const double missing = ns_per_call(kCalls, [&](int b) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < kCalls; i++) {
      const PageKey& k = lookups[std::size_t(b) * kCalls + i];
      m += pc.missing_pages(k.obj, k.page * s.block_size, s.block_size);
    }
    g_sink = g_sink + m;
  });
  return {insert, missing};
}

double txn_encode_crc_ns(const LayerShape& s) {
  constexpr std::size_t kCalls = 20000;
  const osd::OsdConfig ocfg;
  const client::RbdImage image("vm0", s.image_size);
  Rng rng(s.seed ^ 0x7a7a);
  std::vector<fs::Transaction> txns(kCalls);
  char key[64];
  for (std::size_t i = 0; i < kCalls; i++) {
    const std::uint64_t off = rng.uniform_int(0, s.image_size / s.block_size - 1) * s.block_size;
    const fs::ObjectId oid{std::uint32_t(rng.uniform_int(0, s.pg_num - 1)),
                           image.object_name(off / image.object_size())};
    txns[i].write(oid, off % image.object_size(), Payload::pattern(s.block_size, rng.next()));
    std::vector<std::pair<std::string, kv::Value>> kvs;
    std::snprintf(key, sizeof(key), "pglog.%08x.%012llu", oid.pg, (unsigned long long)(i + 1));
    kvs.emplace_back(key, kv::Value::virt(std::uint32_t(ocfg.pg_log_entry_bytes)));
    std::snprintf(key, sizeof(key), "pginfo.%08x", oid.pg);
    kvs.emplace_back(key, kv::Value::virt(std::uint32_t(ocfg.pg_info_bytes)));
    txns[i].omap_setkeys(oid, std::move(kvs));
    txns[i].setattrs(oid, {{"_", kv::Value::virt(std::uint32_t(ocfg.attr_oi_bytes))},
                           {"snapset", kv::Value::virt(std::uint32_t(ocfg.attr_ss_bytes))}});
  }
  return ns_per_call(kCalls, [&](int) {
    std::uint64_t acc = 0;
    for (const auto& t : txns) {
      const std::vector<std::uint8_t> image_bytes = t.encode();
      acc += crc32c(image_bytes.data(), image_bytes.size());
    }
    g_sink = g_sink + acc;
  });
}

// --- kv: memtable with PG-log/omap keys -----------------------------------

std::pair<double, double> memtable_ns(const LayerShape& s) {
  constexpr std::size_t kCalls = 50000;
  const auto value_len = std::uint32_t(osd::OsdConfig{}.pg_log_entry_bytes);
  Rng rng(s.seed ^ 0x3c3c);
  std::vector<std::string> keys(kCalls * kBatches);
  std::vector<std::uint64_t> version(s.pg_num, 0);
  char key[64];
  for (auto& k : keys) {
    const auto pg = std::uint32_t(rng.uniform_int(0, s.pg_num - 1));
    std::snprintf(key, sizeof(key), "pglog.%08x.%012llu", pg, (unsigned long long)++version[pg]);
    k = key;
  }
  std::vector<std::unique_ptr<kv::MemTable>> tables;
  std::uint64_t seq = 0;
  const double put = ns_per_call(kCalls, [&](int b) {
    tables.push_back(std::make_unique<kv::MemTable>(s.seed + std::uint64_t(b)));
    for (std::size_t i = 0; i < kCalls; i++) {
      tables.back()->put(keys[std::size_t(b) * kCalls + i], kv::Value::virt(value_len), ++seq);
    }
  });
  std::vector<std::size_t> probes(kCalls);
  for (auto& p : probes) p = rng.uniform_int(0, kCalls - 1);
  const double get = ns_per_call(kCalls, [&](int b) {
    const kv::MemTable& t = *tables[std::size_t(b)];
    std::uint64_t found = 0;
    for (std::size_t p : probes) found += t.get(keys[std::size_t(b) * kCalls + p]) != nullptr;
    g_sink = g_sink + found;
  });
  return {put, get};
}

// --- store: extent allocator and extent map (FlashStore COW) --------------

std::pair<double, double> extent_ns(const LayerShape& s) {
  constexpr std::size_t kLive = 65536;
  constexpr std::size_t kCalls = 100000;
  Rng rng(s.seed ^ 0x1e1e);
  store::ExtentAllocator alloc(4 * kGiB, s.block_size);
  std::vector<std::uint64_t> live(kLive);
  for (auto& off : live) off = alloc.allocate(s.block_size);
  std::vector<std::size_t> victims(kCalls * kBatches);
  for (auto& v : victims) v = rng.uniform_int(0, kLive - 1);
  // One COW overwrite: free the old block, allocate its replacement.
  const double cow = ns_per_call(kCalls, [&](int b) {
    for (std::size_t i = 0; i < kCalls; i++) {
      std::uint64_t& off = live[victims[std::size_t(b) * kCalls + i]];
      alloc.free(off, s.block_size);
      off = alloc.allocate(s.block_size);
    }
  });

  const std::uint64_t per_obj = 4 * kMiB / s.block_size;
  store::ExtentMap::Object obj;
  for (std::uint64_t p = 0; p < per_obj; p++) {
    store::ExtentMap::write_extent(obj, p * s.block_size, Payload::pattern(s.block_size, p));
  }
  std::vector<std::uint64_t> offs(kCalls * kBatches);
  for (auto& o : offs) o = rng.uniform_int(0, per_obj - 1) * s.block_size;
  const double write = ns_per_call(kCalls, [&](int b) {
    for (std::size_t i = 0; i < kCalls; i++) {
      const std::uint64_t o = offs[std::size_t(b) * kCalls + i];
      store::ExtentMap::write_extent(obj, o, Payload::pattern(s.block_size, o ^ i));
    }
  });
  g_sink = g_sink + obj.extents.size();
  return {cow, write};
}

// --- cluster: object -> PG -> acting set ----------------------------------

std::pair<double, double> placement_ns(const LayerShape& s) {
  constexpr std::size_t kCalls = 100000;
  cluster::ClusterMap cmap(cluster::ClusterMap::PoolConfig{s.pg_num, s.replication});
  for (unsigned i = 0; i < s.osd_nodes * s.osds_per_node; i++) {
    cmap.crush().add_osd(i, i / s.osds_per_node);
  }
  Rng rng(s.seed ^ 0x2d2d);
  std::vector<client::RbdImage> images;
  for (unsigned v = 0; v < s.vms; v++) images.emplace_back("vm" + std::to_string(v), s.image_size);
  std::vector<std::string> names(kCalls);
  for (auto& n : names) {
    const auto& img = images[rng.uniform_int(0, s.vms - 1)];
    n = img.object_name(rng.uniform_int(0, img.object_count() - 1));
  }
  std::vector<std::uint32_t> pgs(kCalls);
  const double pg_of = ns_per_call(kCalls, [&](int) {
    for (std::size_t i = 0; i < kCalls; i++) pgs[i] = cmap.pg_of(names[i]);
  });
  const double acting = ns_per_call(kCalls, [&](int) {
    std::uint64_t acc = 0;
    for (std::uint32_t pg : pgs) acc += cmap.acting(pg).front();
    g_sink = g_sink + acc;
  });
  return {pg_of, acting};
}

// --- net: one messenger send -> deliver -----------------------------------

struct CountingReceiver : net::Receiver {
  std::uint64_t delivered = 0;
  sim::CoTask<void> on_message(net::Message) override {
    delivered++;
    co_return;
  }
};

double msg_ns(const LayerShape& s) {
  constexpr std::size_t kCalls = 20000;
  return ns_per_call(kCalls, [&](int) {
    sim::Simulation sim;
    net::Node a(sim, "a", net::Node::Config{s.node_cores, 1250 * kMiB});
    net::Node b(sim, "b", net::Node::Config{s.node_cores, 1250 * kMiB});
    CountingReceiver rx_a;
    CountingReceiver rx_b;
    net::Messenger ma(sim, a, rx_a, "a");
    net::Messenger mb(sim, b, rx_b, "b");
    net::Connection* conn = ma.connect(mb, net::NetProfile::cluster(net::Connection::Config{}));
    for (std::size_t i = 0; i < kCalls; i++) {
      net::Message m;
      m.type = 1;
      m.size = s.block_size + 150;
      conn->send(std::move(m));
      while (rx_b.delivered <= i && sim.step()) {
      }
    }
    g_sink = g_sink + rx_b.delivered;
  });
}

}  // namespace

std::vector<std::pair<std::string, double>> layer_call_costs(const LayerShape& shape) {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("sim.schedule_run_ns", schedule_run_ns(shape));
  out.emplace_back("sim.cpu_consume_ns", cpu_consume_ns(shape));
  out.emplace_back("sim.cv_notify_ns", cv_notify_ns(shape));
  const auto [insert, missing] = pagecache_ns(shape);
  out.emplace_back("fs.pagecache_insert_ns", insert);
  out.emplace_back("fs.pagecache_missing_ns", missing);
  out.emplace_back("fs.txn_encode_crc_ns", txn_encode_crc_ns(shape));
  const auto [put, get] = memtable_ns(shape);
  out.emplace_back("kv.memtable_put_ns", put);
  out.emplace_back("kv.memtable_get_ns", get);
  const auto [cow, write] = extent_ns(shape);
  out.emplace_back("store.extent_alloc_ns", cow);
  out.emplace_back("store.extent_write_ns", write);
  const auto [pg_of, acting] = placement_ns(shape);
  out.emplace_back("cluster.pg_of_ns", pg_of);
  out.emplace_back("cluster.acting_ns", acting);
  out.emplace_back("net.msg_ns", msg_ns(shape));
  return out;
}

}  // namespace afc::perfbench
