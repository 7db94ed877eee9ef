#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kv/db.h"
#include "sim/cpu.h"
#include "store/extent_map.h"

namespace afc::fs {
class Journal;
}

namespace afc::store {

/// What the OSD needs from its local object store. Two backends implement
/// it: fs::FileStore (objects as files, write-ahead through its NVRAM
/// journal, applied later by the OSD's apply stage) and store::FlashStore
/// (raw-device extent allocator, its own small WAL for sub-block writes,
/// metadata in the LSM KV; applied at commit). Each store owns exactly one
/// write-ahead log, wal(): the OSD's one log for faults, replay and stats.
class ObjectStore {
 public:
  struct ReadResult {
    bool found = false;
    std::uint64_t length = 0;
    std::optional<std::vector<std::uint8_t>> data;  // only if want_data
  };
  using ObjectExport = store::ObjectExport;

  virtual ~ObjectStore() = default;

  /// Admission for a `bytes`-sized transaction, taken inside the PG
  /// critical section before queue_transaction(). May block (a full log).
  virtual sim::CoTask<void> reserve(std::uint64_t bytes) = 0;

  /// Make `tx` durable (the commit point); resumes at commit. Returns the
  /// log sequence of the commit record, or 0 when the store is closing (the
  /// op must not be acked). When applies_at_commit() is false the caller
  /// still owes apply_transaction(tx) and then wal().mark_applied(seq).
  virtual sim::CoTask<std::uint64_t> queue_transaction(const fs::Transaction& tx,
                                                       bool lightweight) = 0;

  /// Whether queue_transaction() also applied the transaction.
  virtual bool applies_at_commit() const = 0;

  /// Apply a committed (or replayed) transaction to the backing store.
  /// `lightweight` selects the AFCeph §3.4 path where the backend
  /// distinguishes them.
  virtual sim::CoTask<void> apply_transaction(const fs::Transaction& tx,
                                              bool lightweight) = 0;

  /// Read [off, off+len) of an object. `want_data=false` skips
  /// materialization (benchmarks) but still charges the same I/O.
  virtual sim::CoTask<ReadResult> read(const fs::ObjectId& oid, std::uint64_t off,
                                       std::uint64_t len, bool want_data = true) = 0;
  /// Metadata read (object_info / snapset): cache hit or one device read.
  virtual sim::CoTask<std::optional<kv::Value>> getattr(const fs::ObjectId& oid,
                                                        const std::string& name) = 0;
  /// stat(2)-equivalent: object existence + size.
  virtual sim::CoTask<std::optional<std::uint64_t>> stat(const fs::ObjectId& oid) = 0;

  // --- cheap in-memory checks (no simulated cost) ------------------------
  virtual bool object_in_memory(const fs::ObjectId& oid) const = 0;
  virtual std::size_t object_count() const = 0;
  virtual std::uint64_t object_size(const fs::ObjectId& oid) const = 0;

  // --- recovery support (control plane; I/O charged by the caller) -------
  virtual std::vector<fs::ObjectId> objects_in_pg(std::uint32_t pg) const = 0;
  virtual ObjectExport export_object(const fs::ObjectId& oid) const = 0;
  /// Drop an object's state (recovery: the importer replaces the whole
  /// object so stale extents the source lacks cannot survive a repair).
  virtual void remove_object(const fs::ObjectId& oid) = 0;
  /// Content fingerprint over the object's extents + size (scrub).
  virtual std::uint64_t object_fingerprint(const fs::ObjectId& oid) const = 0;
  /// FAILURE INJECTION: flip one byte of the object's first extent.
  virtual bool corrupt_object(const fs::ObjectId& oid) = 0;
  /// FAILURE INJECTION: corrupt_object() on a seeded-random resident object.
  virtual std::optional<fs::ObjectId> corrupt_some_object(std::uint64_t seed) = 0;
  /// Deep-scrub self-check: stored checksums still match content.
  virtual bool verify_object(const fs::ObjectId& oid) const = 0;

  /// The store's write-ahead log, exposed for fault injection (stall / torn
  /// write / bit flip), restart replay and the journal statistics.
  virtual fs::Journal& wal() = 0;
  /// The daemon died (fault injection): drop RAM-only bookkeeping (e.g.
  /// the deferred-write ledger). Media-durable state must survive.
  virtual void on_daemon_crash() {}

  /// Implicit-population policy (simulated 80%-full cluster), needed by the
  /// OSD's metadata path before it touches the store.
  virtual bool assume_populated() const = 0;
  virtual std::uint64_t populated_object_size() const = 0;

  virtual void close() = 0;
  /// Wait until all buffered/deferred data has reached the device.
  virtual sim::CoTask<void> drain() = 0;

  // --- instrumentation ---------------------------------------------------
  virtual std::uint64_t dirty_bytes() const { return 0; }
  virtual std::uint64_t writeback_stalls() const { return 0; }
  virtual std::uint64_t syscalls() const { return 0; }
  virtual std::uint64_t metadata_device_reads() const { return 0; }
  virtual std::uint64_t applies() const { return 0; }
  virtual std::uint64_t data_bytes_written() const { return 0; }
};

}  // namespace afc::store
