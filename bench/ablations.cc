// Ablation benches beyond the paper's figures — sensitivity of the design
// choices DESIGN.md calls out:
//
//  1. single-mechanism ablations: each AFCeph mechanism turned off alone
//     (complement of the Fig. 9 ladder, which turns them on cumulatively);
//  2. completion batch size sweep;
//  3. metadata cache capacity sensitivity (community profile);
//  4. light transactions alone on the community base (one KV batch per
//     transaction, fewer syscalls, no alloc hint: the write-amplification
//     effect);
//  5. PG count sweep (lock granularity vs the pending queue).

#include <cstdio>

#include "afceph.h"

using namespace afc;

namespace {

core::RunResult run(core::ClusterConfig cfg, unsigned vms = 40,
                    Time runtime = 1000 * kMillisecond) {
  cfg.vms = vms;
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_write(4096, 16);
  spec.warmup = 300 * kMillisecond;
  spec.runtime = runtime;
  return cluster.run(spec);
}

void one_mechanism_off() {
  std::printf("--- AFCeph minus one mechanism (4K randwrite, sustained, 40 VMs) ---\n");
  struct Case {
    const char* name;
    void (*apply)(core::Profile&);
  };
  const Case cases[] = {
      {"AFCeph (full)", [](core::Profile&) {}},
      {"- pending queue", [](core::Profile& p) { p.pending_queue = false; }},
      {"- dedicated completion+fast ack",
       [](core::Profile& p) { p.dedicated_completion = false; }},
      {"- ssd throttles", [](core::Profile& p) { p.ssd_throttles = false; }},
      {"- jemalloc", [](core::Profile& p) { p.jemalloc = false; }},
      {"- nodelay (nagle back on)", [](core::Profile& p) { p.disable_nagle = false; }},
      {"- nonblocking logging", [](core::Profile& p) { p.nonblocking_logging = false; }},
      {"- light transactions", [](core::Profile& p) { p.light_transactions = false; }},
      {"- write-through meta cache", [](core::Profile& p) { p.writethrough_meta_cache = false; }},
  };
  Table t({"configuration", "IOPS", "mean lat (ms)", "vs full"});
  double full = 0.0;
  for (const auto& c : cases) {
    core::ClusterConfig cfg;
    cfg.profile = core::Profile::afceph();
    c.apply(cfg.profile);
    cfg.sustained = true;
    auto r = run(cfg);
    if (full == 0.0) full = r.write_iops;
    t.row({c.name, Table::kiops(r.write_iops), Table::num(r.write_lat_ms, 2),
           Table::num(r.write_iops / full * 100.0, 0) + "%"});
  }
  t.print();
}

void batch_size_sweep() {
  std::printf("\n--- completion batch size (AFCeph, sustained, 40 VMs) ---\n");
  Table t({"batch max", "IOPS", "mean lat (ms)"});
  for (unsigned batch : {1u, 8u, 64u, 256u}) {
    core::ClusterConfig cfg;
    cfg.profile = core::Profile::afceph();
    cfg.sustained = true;
    cfg.osd.completion_batch_max = batch;
    auto r = run(cfg);
    t.row({std::to_string(batch), Table::kiops(r.write_iops), Table::num(r.write_lat_ms, 2)});
  }
  t.print();
}

void light_transactions_only() {
  std::printf("\n--- light transactions alone: write amplification (community base) ---\n");
  Table t({"mode", "IOPS", "KV write amp", "KV stalls"});
  for (bool light : {false, true}) {
    core::ClusterConfig cfg;
    cfg.profile = core::Profile::community();
    cfg.profile.light_transactions = light;
    cfg.sustained = true;
    auto r = run(cfg, 40, 1500 * kMillisecond);
    t.row({light ? "batched (1 batch/txn)" : "separate puts", Table::kiops(r.write_iops),
           Table::num(r.kv_write_amplification, 2),
           std::to_string(r.kv_stall_slowdowns)});
  }
  t.print();
}

void pg_count_sweep() {
  std::printf("\n--- PG count (lock granularity) x pending queue, clean, 40 VMs ---\n");
  Table t({"pg_num", "community IOPS", "+pending-queue IOPS", "gain"});
  for (std::uint32_t pgs : {128u, 512u, 2048u}) {
    double iops[2];
    for (int p = 0; p < 2; p++) {
      core::ClusterConfig cfg;
      cfg.profile = p == 0 ? core::Profile::community() : core::Profile::ladder(1);
      cfg.pg_num = pgs;
      cfg.sustained = false;  // lock effects visible when filestore isn't the binder
      iops[p] = run(cfg).write_iops;
    }
    t.row({std::to_string(pgs), Table::kiops(iops[0]), Table::kiops(iops[1]),
           Table::num((iops[1] / iops[0] - 1.0) * 100.0, 0) + "%"});
  }
  t.print();
}

void hot_object_skew() {
  std::printf("\n--- access skew (Zipf) x pending queue, clean, 40 VMs, 4K randwrite ---\n");
  Table t({"zipf theta", "community IOPS", "+pending-queue IOPS", "gain"});
  for (double theta : {0.0, 0.9, 1.1}) {
    double iops[2];
    for (int p = 0; p < 2; p++) {
      core::ClusterConfig cfg;
      cfg.profile = p == 0 ? core::Profile::community() : core::Profile::ladder(1);
      cfg.sustained = false;
      cfg.vms = 40;
      core::ClusterSim cluster(cfg);
      auto spec = client::WorkloadSpec::rand_write(4096, 16);
      spec.zipf_theta = theta;
      spec.warmup = 300 * kMillisecond;
      spec.runtime = 1000 * kMillisecond;
      iops[p] = cluster.run(spec).write_iops;
    }
    t.row({Table::num(theta, 2), Table::kiops(iops[0]), Table::kiops(iops[1]),
           Table::num((iops[1] / iops[0] - 1.0) * 100.0, 0) + "%"});
  }
  t.print();
  std::printf("hot objects concentrate load on few PGs; the pending queue keeps\n"
              "workers off the hot PG's lock, so its benefit grows with skew.\n");
}

}  // namespace

int main() {
  one_mechanism_off();
  batch_size_sweep();
  light_transactions_only();
  pg_count_sweep();
  hot_object_skew();
  return 0;
}
