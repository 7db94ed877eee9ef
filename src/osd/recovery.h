#pragma once

#include <vector>

#include "cluster/map.h"
#include "ec/codec.h"
#include "osd/osd.h"

/// Recovery after a placement change, one rule for every caller (ClusterSim
/// decommission/add_node, the fault injector's oracle crash/restart, the
/// OSD's detected-membership map delta): when a PG's acting set moves from
/// `old` to `now`, every member of `now` holds the PG with `now`, and each
/// member that lacks data recovers it — an EC member by decoding its shard
/// position from k peers, a replicated member by a push_pg copy from the
/// caller's source. `osds[i]` is always the OSD with id i.
namespace afc::osd {

/// Acting sets of every PG, indexed by pgid: the "before" of a change.
using ActingSets = std::vector<std::vector<std::uint32_t>>;
ActingSets snapshot_acting(const cluster::ClusterMap& cmap);

/// Positions of `now` whose member needs data: for EC each position whose
/// holder changed (kNoOsd holes need none), for replicated pools each member
/// that was not in `old`.
std::vector<unsigned> recovery_positions(bool erasure, const std::vector<std::uint32_t>& old,
                                         const std::vector<std::uint32_t>& now);

/// The "before" of PG `pgid` for a primary that never held it: each member
/// of cmap.acting(pgid) whose own PG shows it already served its slot keeps
/// it; every other slot is kNoOsd.
std::vector<std::uint32_t> served_slots(const cluster::ClusterMap& cmap,
                                        const std::vector<Osd*>& osds, std::uint32_t pgid);

struct RecoveryTarget {
  std::uint32_t pgid = 0;
  unsigned pos = 0;  // shard position (EC) or acting-set index (replicated)
  Osd* osd = nullptr;
  Osd* source = nullptr;  // push source; nullptr: decode the shard at `pos`
  bool decode() const { return source == nullptr; }
};

/// Install PG `pgid` with cmap.acting(pgid) at every member and return the
/// targets that can recover: replicated ones need a `source` other than
/// themselves.
std::vector<RecoveryTarget> plan_pg_recovery(const cluster::ClusterMap& cmap,
                                             const std::vector<Osd*>& osds, std::uint32_t pgid,
                                             const std::vector<std::uint32_t>& old, Osd* source);
/// plan_pg_recovery for every PG that changed since `before`, each with the
/// first old member CRUSH still marks up as its source (the oracle's view).
std::vector<RecoveryTarget> plan_recovery(const cluster::ClusterMap& cmap,
                                          const std::vector<Osd*>& osds, const ActingSets& before);
/// Recover one target; returns the objects pushed or shards rebuilt.
sim::CoTask<std::uint64_t> recover(sim::Simulation& sim, cluster::ClusterMap& cmap,
                                   const std::vector<Osd*>& osds, const RecoveryTarget& t);

/// Rebuild every shard object of `pgid` at position `pos` onto `target`:
/// export >= k clean shards per stripe from the other positions (charged as
/// source reads + wire transfer, like a push), decode, install. Identical
/// shards are skipped, torn stripe tails are left for scrub. Returns shard
/// objects rebuilt.
sim::CoTask<std::uint64_t> ec_rebuild_position(sim::Simulation& sim, cluster::ClusterMap& cmap,
                                               const std::vector<Osd*>& osds, std::uint32_t pgid,
                                               unsigned pos, Osd& target);

/// One clean shard export feeding a reconstruction.
struct ShardSource {
  unsigned pos;
  store::ObjectExport exp;
};
/// The extent of `exp` at exactly `off`, or nullptr (the extents of one
/// stripe's shards line up at the same shard-space offsets).
const Payload* extent_at(const store::ObjectExport& exp, std::uint64_t off);
/// Reconstruct shard `pos` from >= k clean `srcs`, extent by extent over the
/// union of their extents; an extent with fewer than k sources (a torn
/// tail) is left out. Carries the first source xattrs.
store::ObjectExport reconstruct_shard(const ec::Codec& codec, unsigned pos,
                                      const std::vector<ShardSource>& srcs);

}  // namespace afc::osd
