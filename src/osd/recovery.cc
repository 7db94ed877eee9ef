#include "osd/recovery.h"

#include <algorithm>
#include <map>
#include <set>

#include "ec/layout.h"

namespace afc::osd {

namespace {

constexpr std::uint32_t kNoOsd = cluster::ClusterMap::kNoOsd;

/// The OSD at position `p` of `acting`, or nullptr for a hole.
Osd* holder(const std::vector<Osd*>& osds, const std::vector<std::uint32_t>& acting, unsigned p) {
  const std::uint32_t id = acting[p];
  return id == kNoOsd || id >= osds.size() ? nullptr : osds[id];
}

}  // namespace

// --- the placement-change rule ----------------------------------------------

ActingSets snapshot_acting(const cluster::ClusterMap& cmap) {
  ActingSets sets(cmap.pool().pg_num);
  for (std::uint32_t pg = 0; pg < cmap.pool().pg_num; pg++) sets[pg] = cmap.acting(pg);
  return sets;
}

std::vector<unsigned> recovery_positions(bool erasure, const std::vector<std::uint32_t>& old,
                                         const std::vector<std::uint32_t>& now) {
  std::vector<unsigned> positions;
  for (unsigned pos = 0; pos < now.size(); pos++) {
    const std::uint32_t member = now[pos];
    if (member == kNoOsd) continue;
    // EC shards are positional: ec_remap pins survivors to their slots, so
    // exactly the changed positions lost a shard. Replicas are
    // interchangeable: only a member new to the set lacks the data.
    const bool needs = erasure ? pos >= old.size() || old[pos] != member
                               : std::find(old.begin(), old.end(), member) == old.end();
    if (needs) positions.push_back(pos);
  }
  return positions;
}

std::vector<std::uint32_t> served_slots(const cluster::ClusterMap& cmap,
                                        const std::vector<Osd*>& osds, std::uint32_t pgid) {
  const std::vector<std::uint32_t>& now = cmap.acting(pgid);
  std::vector<std::uint32_t> served(now.size(), kNoOsd);
  for (unsigned pos = 0; pos < now.size(); pos++) {
    Osd* member = holder(osds, now, pos);
    Pg* pg = member == nullptr ? nullptr : member->find_pg(pgid);
    if (pg == nullptr) continue;
    const std::vector<unsigned> needs = recovery_positions(cmap.erasure(), pg->acting(), now);
    if (std::find(needs.begin(), needs.end(), pos) == needs.end()) served[pos] = now[pos];
  }
  return served;
}

std::vector<RecoveryTarget> plan_pg_recovery(const cluster::ClusterMap& cmap,
                                             const std::vector<Osd*>& osds, std::uint32_t pgid,
                                             const std::vector<std::uint32_t>& old, Osd* source) {
  const std::vector<std::uint32_t>& now = cmap.acting(pgid);
  // A member new to the set may not hold the PG yet: install it before any
  // recovery pushes objects, or the primary sub-ops, at it.
  for (std::uint32_t member : now) {
    if (member == kNoOsd) continue;
    if (Pg* pg = osds[member]->find_pg(pgid)) {
      pg->set_acting(now);
    } else {
      osds[member]->create_pg(pgid, now);
    }
  }
  std::vector<RecoveryTarget> targets;
  for (unsigned pos : recovery_positions(cmap.erasure(), old, now)) {
    Osd* member = osds[now[pos]];
    if (cmap.erasure()) {
      targets.push_back(RecoveryTarget{pgid, pos, member, nullptr});
    } else if (source != nullptr && source != member) {
      targets.push_back(RecoveryTarget{pgid, pos, member, source});
    }
  }
  return targets;
}

std::vector<RecoveryTarget> plan_recovery(const cluster::ClusterMap& cmap,
                                          const std::vector<Osd*>& osds, const ActingSets& before) {
  std::vector<RecoveryTarget> targets;
  for (std::uint32_t pg = 0; pg < before.size(); pg++) {
    const std::vector<std::uint32_t>& old = before[pg];
    if (cmap.acting(pg) == old) continue;
    Osd* source = nullptr;
    for (std::uint32_t member : old) {
      if (member != kNoOsd && cmap.crush().is_up(member)) {
        source = osds[member];
        break;
      }
    }
    const std::vector<RecoveryTarget> more = plan_pg_recovery(cmap, osds, pg, old, source);
    targets.insert(targets.end(), more.begin(), more.end());
  }
  // Survivors that left an acting set keep their stale data; a real cluster
  // trims it lazily, which the model skips.
  return targets;
}

sim::CoTask<std::uint64_t> recover(sim::Simulation& sim, cluster::ClusterMap& cmap,
                                   const std::vector<Osd*>& osds, const RecoveryTarget& t) {
  if (t.decode()) co_return co_await ec_rebuild_position(sim, cmap, osds, t.pgid, t.pos, *t.osd);
  co_return co_await t.source->push_pg(t.pgid, *t.osd);
}

// --- replicated recovery: copy objects --------------------------------------

sim::CoTask<std::uint64_t> Osd::push_pg(std::uint32_t pgid, Osd& target) {
  std::uint64_t pushed = 0;
  Pg* src_pg = find_pg(pgid);
  for (const auto& oid : store_->objects_in_pg(pgid)) {
    // Delta backfill: journal replay (or an earlier push) may already have
    // restored this object at the target — skip identical content. After a
    // push, re-check and re-push: a client write that applied at the target
    // mid-copy is wiped by the snapshot install while the source keeps it,
    // so one pass can leave the replica stale under live traffic.
    unsigned attempts = 0;
    while (attempts < 4) {
      // The export must reflect every write this source has admitted for
      // the object: under backlog the filestore lags the journal by
      // hundreds of ms, and an export taken in that window would "repair"
      // an up-to-date replica backwards (the replica applied those writes
      // already; the snapshot install erases them, and the source's late
      // apply then diverges the copies for good).
      co_await wait_object_readable(oid);
      if (target.store().object_in_memory(oid) &&
          target.store().object_fingerprint(oid) == store_->object_fingerprint(oid)) {
        break;
      }
      auto data = co_await ship_object(oid);
      co_await target.recover_object(oid, std::move(data));
      attempts++;
    }
    if (attempts == 0) {
      counters_.add("osd.backfill_skipped");
    } else {
      pushed++;
    }
  }
  // Sync the version stream so the target can continue the PG log.
  if (src_pg != nullptr) {
    if (Pg* dst_pg = target.find_pg(pgid)) dst_pg->observe_version(src_pg->version());
  }
  co_return pushed;
}

sim::CoTask<store::ObjectExport> Osd::ship_object(const fs::ObjectId& oid) {
  auto data = store_->export_object(oid);
  std::uint64_t bytes = 0;
  for (const auto& [off, payload] : data.extents) bytes += payload.size();
  if (bytes > 0) {
    co_await store_->read(oid, 0, data.size, /*want_data=*/false);
    co_await node_.nic_transmit(bytes + 512);
    co_await sim::delay(sim_, 60 * kMicrosecond, "osd.push_hop");
  }
  co_return data;
}

sim::CoTask<void> Osd::recover_object(const fs::ObjectId& oid,
                                      store::ObjectExport data) {
  // Replace, don't merge: scrub compares whole-object fingerprints, so the
  // recovered replica must reproduce the source's exact extent layout —
  // stale extents in ranges the source never wrote may not survive.
  store_->remove_object(oid);
  fs::Transaction txn;
  for (auto& [off, payload] : data.extents) txn.write(oid, off, std::move(payload));
  if (!data.xattrs.empty()) txn.setattrs(oid, std::move(data.xattrs));
  co_await store_->apply_transaction(txn, /*lightweight=*/true);
  ObjectMeta meta;
  meta.exists = true;
  meta.size = data.size;
  meta_cache_.insert(oid, meta);
}

// --- EC recovery: recompute shards ------------------------------------------

const Payload* extent_at(const store::ObjectExport& exp, std::uint64_t off) {
  for (const auto& [eoff, pay] : exp.extents)
    if (eoff == off) return &pay;
  return nullptr;
}

store::ObjectExport reconstruct_shard(const ec::Codec& codec, unsigned pos,
                                      const std::vector<ShardSource>& srcs) {
  const unsigned k = codec.k();
  std::map<std::uint64_t, std::uint64_t> extents;
  for (const auto& s : srcs)
    for (const auto& [off, pay] : s.exp.extents) extents[off] = std::max(extents[off], pay.size());

  store::ObjectExport out;
  for (const auto& [off, len] : extents) {
    std::vector<unsigned> present;
    std::vector<std::vector<std::uint8_t>> chunks;
    for (const auto& s : srcs) {
      const Payload* pay = extent_at(s.exp, off);
      if (pay == nullptr || present.size() >= k) continue;
      auto bytes = pay->materialize();
      bytes.resize(len, 0);
      present.push_back(s.pos);
      chunks.push_back(std::move(bytes));
    }
    if (present.size() < k) continue;
    auto chunk = codec.reconstruct_shard(pos, present, chunks);
    if (!chunk.has_value()) continue;
    out.size = std::max(out.size, off + chunk->size());
    out.extents.emplace_back(off, Payload::bytes(std::move(*chunk)));
  }
  for (const auto& s : srcs) {
    if (!s.exp.xattrs.empty()) {
      out.xattrs = s.exp.xattrs;
      break;
    }
  }
  return out;
}

sim::CoTask<std::uint64_t> ec_rebuild_position(sim::Simulation& sim,
                                               cluster::ClusterMap& cmap,
                                               const std::vector<Osd*>& osds,
                                               std::uint32_t pgid, unsigned pos,
                                               Osd& target) {
  const unsigned k = cmap.ec_k();
  const unsigned m = cmap.ec_m();
  const ec::Codec codec(k, m);
  const std::vector<std::uint32_t> acting = cmap.acting(pgid);
  if (acting.size() < std::size_t(k) + m) co_return 0;

  // Every stripe that has a shard on any surviving position needs its `pos`
  // shard present at the target.
  std::set<std::string> bases;
  for (unsigned p = 0; p < k + m; p++) {
    Osd* src = p == pos ? nullptr : holder(osds, acting, p);
    if (src == nullptr) continue;
    for (const auto& oid : src->store().objects_in_pg(pgid))
      if (auto sn = ec::parse_shard(oid.name); sn.has_value() && sn->shard == p)
        bases.insert(sn->base);
  }

  std::uint64_t rebuilt = 0;
  for (const auto& base : bases) {
    const fs::ObjectId base_oid{pgid, base};
    const fs::ObjectId toid = ec::shard_oid(base_oid, pos);

    // Ship up to k clean source shards, charged like a push.
    std::vector<ShardSource> srcs;
    for (unsigned p = 0; p < k + m && srcs.size() < k; p++) {
      Osd* src = p == pos ? nullptr : holder(osds, acting, p);
      if (src == nullptr) continue;
      const fs::ObjectId soid = ec::shard_oid(base_oid, p);
      co_await src->wait_object_readable(soid);
      if (!src->store().object_in_memory(soid)) continue;
      // Never rebuild from a chunk that fails its own CRC — that would
      // launder latent corruption into freshly "recovered" data.
      if (!src->store().verify_object(soid)) continue;
      auto exp = co_await src->ship_object(soid);
      srcs.push_back(ShardSource{p, std::move(exp)});
    }
    if (srcs.size() < k) continue;  // unrecoverable right now; scrub retries later

    store::ObjectExport out = reconstruct_shard(codec, pos, srcs);
    if (out.extents.empty()) continue;

    // Delta rebuild: journal replay (restart) may already have restored the
    // shard — compare *content*, not fingerprints, because a live-written
    // data shard is a virtual slice while the decode emits real bytes.
    if (target.store().object_in_memory(toid)) {
      auto cur = target.store().export_object(toid);
      bool same = cur.extents.size() == out.extents.size();
      for (std::size_t i = 0; same && i < cur.extents.size(); i++)
        same = cur.extents[i].first == out.extents[i].first &&
               cur.extents[i].second.content_equals(out.extents[i].second);
      if (same) {
        target.counters().add("osd.ec_rebuild_skipped");
        continue;
      }
    }

    co_await target.recover_object(toid, std::move(out));
    target.counters().add("osd.ec_shards_rebuilt");
    rebuilt++;
    if (auto* tr = trace::Collector::active()) {
      tr->instant(trace::Span{std::uint64_t(pgid) << 8 | pos, trace::kFaultTrack},
                  tr->stage_id(stage::kEcRebuild), sim.now());
    }
  }

  // Continue the PG's version stream at the rebuilt member.
  for (unsigned p = 0; p < k + m; p++) {
    Osd* src = p == pos ? nullptr : holder(osds, acting, p);
    if (src == nullptr) continue;
    if (Pg* src_pg = src->find_pg(pgid)) {
      if (Pg* dst_pg = target.find_pg(pgid)) dst_pg->observe_version(src_pg->version());
      break;
    }
  }
  co_return rebuilt;
}

}  // namespace afc::osd
