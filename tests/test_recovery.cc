// Tests for recovery after a placement change: the target rule itself,
// golden counts for every caller of the recovery planner (ClusterSim
// decommission and add_node, the fault injector's oracle crash/restart on
// replicated and EC pools, and the detected-membership map-delta handler),
// detected-mode crashes in which every acting member must end up holding its
// PG and its data, and add_node's wiring.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "afceph.h"

namespace afc {
namespace {

// ---------------------------------------------------------------------------
// The target rule: which positions of the new acting set need data.

TEST(RecoveryPositions, ReplicatedNewcomersAndEcChangedPositions) {
  constexpr std::uint32_t kHole = cluster::ClusterMap::kNoOsd;
  using Positions = std::vector<unsigned>;
  // Replicated: a member new to the set needs a copy, wherever it lands;
  // survivors need nothing, even when their order changes.
  EXPECT_EQ(osd::recovery_positions(false, {0, 1, 2}, {0, 3, 2}), Positions{1});
  EXPECT_EQ(osd::recovery_positions(false, {0, 1}, {3, 0}), Positions{0});
  EXPECT_EQ(osd::recovery_positions(false, {0, 1}, {1, 0}), Positions{});
  EXPECT_EQ(osd::recovery_positions(false, {0}, {0, 1}), Positions{1});
  EXPECT_EQ(osd::recovery_positions(false, {}, {4, 5}), (Positions{0, 1}));
  // EC: shards are positional, so each position whose holder changed needs
  // its shard, a swap included.
  EXPECT_EQ(osd::recovery_positions(true, {0, 1, 2, 3, 4, 5}, {0, 1, 6, 3, 4, 7}),
            (Positions{2, 5}));
  EXPECT_EQ(osd::recovery_positions(true, {0, 1, 2, 3, 4, 5}, {1, 0, 2, 3, 4, 5}),
            (Positions{0, 1}));
  // A hole has no holder to recover; a hole refilled needs its shard.
  EXPECT_EQ(osd::recovery_positions(true, {0, 1, 2, 3, 4, 5}, {0, kHole, 2, 3, 4, 5}),
            Positions{});
  EXPECT_EQ(osd::recovery_positions(true, {0, kHole, 2, 3, 4, 5}, {0, 6, 2, 3, 4, 5}),
            Positions{1});
  EXPECT_EQ(osd::recovery_positions(true, {}, {kHole, 6, 2}), (Positions{1, 2}));
  // An unchanged set needs nothing.
  EXPECT_EQ(osd::recovery_positions(false, {2, 0, 1}, {2, 0, 1}), Positions{});
  EXPECT_EQ(osd::recovery_positions(true, {0, kHole, 2}, {0, kHole, 2}), Positions{});
}

// ---------------------------------------------------------------------------
// Golden recovery counts. Each scenario drives one placement change through
// one caller; the pinned integers fix which targets were recovered, how
// (push or decode), and the event order of the whole run.

struct RecoveryCase {
  const char* name;
  std::uint64_t migrated;           // decommission_osd / add_node return value
  std::uint64_t fault_backfills;    // fault.backfills
  std::uint64_t fault_ec_rebuilds;  // fault.ec_rebuilds
  std::uint64_t map_backfills;      // osd.map_backfills
  std::uint64_t shards_rebuilt;     // osd.ec_shards_rebuilt
  std::uint64_t backfill_skipped;   // osd.backfill_skipped
  std::uint64_t rebuild_skipped;    // osd.ec_rebuild_skipped
  std::uint64_t events;             // executed simulation events
};

/// Test names carry the case name only (the default would print its bytes,
/// a pointer among them).
void PrintTo(const RecoveryCase& c, std::ostream* os) { *os << c.name; }

class RecoveryGolden : public ::testing::TestWithParam<RecoveryCase> {};

core::ClusterConfig replicated_cluster() {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.vms = 2;
  cfg.pg_num = 64;
  cfg.image_size = 256 * kMiB;
  cfg.sustained = false;
  return cfg;
}

core::ClusterConfig fault_cluster(bool ec) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = ec ? 8 : 4;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 1;
  cfg.vms = 2;
  cfg.pg_num = 32;
  cfg.replication = 2;
  cfg.min_size = 1;
  cfg.ec_pool = ec;
  cfg.sustained = false;
  cfg.image_size = 512 * kMiB;
  cfg.seed = 42;
  cfg.osd.rep_timeout = 20 * kMillisecond;
  cfg.osd.rep_retries = 1;
  cfg.client_op_timeout = 250 * kMillisecond;
  cfg.client_op_retries = 4;
  return cfg;
}

/// Write `objects` 4K blocks one object apart, let the applies drain, then
/// run `change` (decommission or add_node) and return what it migrated.
template <class Change>
std::uint64_t elastic_change(core::ClusterSim& cluster, int objects, Change change) {
  std::uint64_t migrated = 0;
  bool done = false;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (int i = 0; i < objects; i++) {
      co_await cluster.vm(0).write_once(std::uint64_t(i) * 4 * kMiB,
                                        Payload::pattern(4096, 900 + std::uint64_t(i)));
    }
    co_await sim::delay(cluster.simulation(), 2 * kSecond);
    migrated = co_await change();
    done = true;
  });
  cluster.simulation().run();
  EXPECT_TRUE(done);
  return migrated;
}

/// 300 ms of 4K writes against an armed fault plan, then a drain: a full
/// one for the oracle (nothing re-arms), a fixed window under detected
/// membership (heartbeat timers re-arm forever).
void soak(core::ClusterSim& cluster, const fault::FaultPlan& plan) {
  cluster.install_faults(plan);
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.warmup = 50 * kMillisecond;
  spec.runtime = 300 * kMillisecond;
  client::RunStats stats;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  if (cluster.monitor() != nullptr) {
    cluster.simulation().run_until(stats.window_end + 2 * kSecond);
  } else {
    cluster.simulation().run();
  }
}

TEST_P(RecoveryGolden, CountsMatchPinnedValues) {
  const RecoveryCase& g = GetParam();
  const std::string name = g.name;
  std::unique_ptr<core::ClusterSim> cluster;
  std::uint64_t migrated = 0;
  if (name == "decommission") {
    cluster = std::make_unique<core::ClusterSim>(replicated_cluster());
    migrated = elastic_change(*cluster, 48, [&] { return cluster->decommission_osd(0); });
  } else if (name == "add_node") {
    cluster = std::make_unique<core::ClusterSim>(replicated_cluster());
    migrated = elastic_change(*cluster, 32, [&] { return cluster->add_node(); });
  } else {
    const bool ec = name == "oracle_ec";
    core::ClusterConfig cfg = fault_cluster(ec);
    if (name == "detected_replicated") {
      // Short enough that the crashed OSD is marked out (data moves to a
      // newcomer) before its restart marks it up again.
      cfg.membership.mode = mon::MembershipMode::kDetected;
      cfg.membership.down_out_interval = 100 * kMillisecond;
    }
    cluster = std::make_unique<core::ClusterSim>(cfg);
    fault::FaultPlan plan;
    plan.crash_restart(120 * kMillisecond, 1, 250 * kMillisecond);
    soak(*cluster, plan);
  }

  const Counters c = cluster->counters();
  EXPECT_EQ(migrated, g.migrated);
  EXPECT_EQ(c.get("fault.backfills"), g.fault_backfills);
  EXPECT_EQ(c.get("fault.ec_rebuilds"), g.fault_ec_rebuilds);
  EXPECT_EQ(c.get("osd.map_backfills"), g.map_backfills);
  EXPECT_EQ(c.get("osd.ec_shards_rebuilt"), g.shards_rebuilt);
  EXPECT_EQ(c.get("osd.backfill_skipped"), g.backfill_skipped);
  EXPECT_EQ(c.get("osd.ec_rebuild_skipped"), g.rebuild_skipped);
  EXPECT_EQ(cluster->simulation().executed_events(), g.events);

  cluster->close_all();
  cluster->simulation().run_until(cluster->simulation().now() + kSecond);
}

INSTANTIATE_TEST_SUITE_P(
    EveryCaller, RecoveryGolden,
    ::testing::Values(RecoveryCase{"decommission", 30, 0, 0, 0, 0, 0, 0, 4189},
                      RecoveryCase{"add_node", 16, 0, 0, 0, 0, 0, 0, 2753},
                      RecoveryCase{"oracle_replicated", 0, 26, 0, 0, 0, 0, 0, 259892},
                      RecoveryCase{"oracle_ec", 0, 0, 42, 0, 330, 0, 0, 767409},
                      RecoveryCase{"detected_replicated", 0, 0, 0, 18, 0, 34, 0, 124810}),
    [](const ::testing::TestParamInfo<RecoveryCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Detected membership: osd.0 crashes for good, the monitor marks it down and
// then out, and each PG it held re-places a member on a newcomer. Every
// member of every new acting set must hold the PG (a member without it drops
// the primary's sub-ops and its client ops), a newcomer that became the PG's
// primary included, and every client op must resolve.

void expect_newcomers_recovered(core::ClusterConfig cfg) {
  SCOPED_TRACE(cfg.ec_pool ? "EC(4+2)" : "replication 2");
  cfg.image_size = 64 * kMiB;
  cfg.membership.mode = mon::MembershipMode::kDetected;
  cfg.membership.down_out_interval = 300 * kMillisecond;
  core::ClusterSim cluster(cfg);
  fault::FaultPlan plan;
  plan.crash(100 * kMillisecond, 0);
  cluster.install_faults(plan);

  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = 0.7;
  spec.verify = true;
  spec.warmup = 50 * kMillisecond;
  spec.runtime = 1500 * kMillisecond;
  client::RunStats stats;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run_until(stats.window_end + 2 * kSecond);

  ASSERT_FALSE(cluster.map().crush().is_in(0)) << "osd.0 was never marked out";
  std::size_t members = 0;
  for (std::uint32_t pg = 0; pg < cfg.pg_num; pg++) {
    for (std::uint32_t m : cluster.map().acting(pg)) {
      if (m == cluster::ClusterMap::kNoOsd) continue;
      members++;
      EXPECT_NE(cluster.osd(m).find_pg(pg), nullptr) << "pg " << pg << " osd." << m;
    }
  }
  EXPECT_GT(members, 0u);
  std::uint64_t begun = 0, resolved = 0;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    begun += cluster.vm(v).ops_begun();
    resolved += cluster.vm(v).ops_resolved();
  }
  EXPECT_EQ(begun, resolved);
  // An EC rebuild can still race a concurrent write to the shard it
  // replaces (the install swaps the whole shard), so only replicated reads
  // are held to read-your-writes here.
  if (!cfg.ec_pool) {
    EXPECT_EQ(stats.verify_failures, 0u);
  }

  cluster.close_all();
  cluster.simulation().run_until(cluster.simulation().now() + kSecond);
}

TEST(DetectedRecovery, NewcomersHoldTheirPgsAndData) {
  // EC(4+2) over 8 OSDs: every PG osd.0 held rebuilds one position.
  expect_newcomers_recovered(fault_cluster(/*ec=*/true));
  // Replication 2 over two hosts of four OSDs: when osd.0 leaves, a host
  // peer can take its slot ahead of the survivor and become the primary
  // of a PG it never held.
  core::ClusterConfig cfg = fault_cluster(/*ec=*/false);
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 4;
  expect_newcomers_recovered(cfg);
}

// add_node wires each new OSD to every other OSD and every VM exactly once:
// a second, orphaned connection per new pair would charge the per-connection
// receive tax for a link that carries nothing.
TEST(ClusterSim, AddNodeWiresEachPairOnce) {
  core::ClusterSim cluster(replicated_cluster());
  bool done = false;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    co_await cluster.add_node();
    done = true;
  });
  cluster.simulation().run();
  ASSERT_TRUE(done);
  ASSERT_EQ(cluster.osd_count(), 6u);
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    EXPECT_EQ(cluster.osd(i).messenger().rx_connections(),
              cluster.osd_count() - 1 + cluster.vm_count())
        << "osd." << i;
    for (std::size_t j = 0; j < cluster.osd_count(); j++) {
      if (j == i) continue;
      EXPECT_NE(cluster.osd(i).peer_conn(std::uint32_t(j)), nullptr) << i << "->" << j;
    }
  }
  cluster.close_all();
  cluster.simulation().run();
}

}  // namespace
}  // namespace afc
