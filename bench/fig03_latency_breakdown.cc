// Figure 3 reproduction: write-path latency breakdown for community Ceph
// under 4K random-write load, traced through the stages of Fig. 2(b):
//
//   (1) op dequeued by OP_WQ  (2) submitted to PG backend (repops sent,
//   txn prepared — under PG lock)  (3) journal queued (throttles passed —
//   under PG lock)  (4) journal write durable  (5) commit processed at the
//   PG backend (finisher, PG lock)  (6) replica commits processed
//   (7) ack sent to the client.
//
// Paper shapes: total ~17 ms under load with ~9 ms attributable to PG-lock
// waiting (queue wait + lock convoys + throttle waits held under the lock);
// journal completion and replica-ack processing each add ~1 ms of
// lock-bound delay. We print the same breakdown for AFCeph to show the
// lock-bound stages collapsing.

#include <cstdio>

#include "afceph.h"

using namespace afc;

namespace {

// Stage labels come from the shared table (common/stage_names.h), the same
// strings the trace collector interns — bench output and trace JSON cannot
// drift apart.

void run_profile(const core::Profile& profile) {
  core::ClusterConfig cfg;
  cfg.profile = profile;
  cfg.sustained = true;
  cfg.vms = 64;
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_write(4096, 16);
  spec.warmup = 300 * kMillisecond;
  spec.runtime = 1200 * kMillisecond;
  auto r = cluster.run(spec);

  // Per-stage means from the OSDs' merged boundary histograms. With
  // AFC_SIM_TRACE set the trace collector sees the identical records (the
  // OSD mirrors its stamps into it), so tracing only adds the span file.
  const auto& stage_ms = r.stage_ms;
  const double total_ms = r.write_path_total_ms;

  std::printf("\n%s  (%.0f IOPS, client mean %.2f ms)\n", profile.name.c_str(), r.write_iops,
              r.write_lat_ms);
  Table t({"stage", "mean delta (ms)"});
  double cum = 0.0;
  for (unsigned s = 1; s < osd::kStageCount; s++) {
    cum += stage_ms[s];
    t.row({kWriteStageNames[s], Table::num(stage_ms[s], 2)});
  }
  t.row({"TOTAL (OSD write path)", Table::num(total_ms, 2)});
  t.print();

  // PG-lock-attributable time: queue/lock wait before processing, the
  // lock-held throttle waits, and the lock-bound completion/ack stages.
  const double lock_bound = stage_ms[1] + stage_ms[3] + stage_ms[5] + stage_ms[7];
  std::printf("PG-lock-bound stages (1)+(3)+(5)+(7): %.2f ms of %.2f ms total\n", lock_bound,
              total_ms);
  std::printf("measured PG-lock wait inside OSDs: %.1f ms per op average\n",
              r.write_iops > 0 ? to_ms(r.pg_lock_wait_ns) / (r.write_iops * 1.2) : 0.0);
}

}  // namespace

int main() {
  std::printf("Fig.3: write-path latency breakdown (4 nodes, rep=2, sustained, loaded)\n");
  run_profile(core::Profile::community());
  run_profile(core::Profile::afceph());
  return 0;
}
