#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace afc::core {

/// The paper's optimizations, one switch per mechanism. A Fig. 9 ladder
/// step turns on one or more switches; a switch turns on all the parts of
/// its mechanism together (dedicated completion brings the fast ack path,
/// light transactions drop the alloc hint, non-blocking logging brings the
/// log cache and its writer threads). The parts have no switches of their
/// own: the paper never measures them apart, and the fast ack path relies
/// on the dedicated completion worker to finish the ops it credits.
struct Profile {
  std::string name = "community";

  // --- §3.1 minimizing coarse-grained locking -------------------------
  /// Per-PG pending queue: a worker that finds the PG busy parks the op
  /// and serves other PGs instead of blocking (paper Fig. 5).
  bool pending_queue = false;
  /// Journal/filestore completions do only OP-lock work inline; PG-side
  /// status work is batched by a dedicated completion worker (Fig. 6).
  /// Acks (client replies, replica commit notifications) take the fast
  /// path around the PG queue instead of competing with data ops.
  bool dedicated_completion = false;

  // --- §3.2 throttling & system tuning --------------------------------
  /// Size filestore_queue_max_ops / osd_client_message_cap for SSDs
  /// (community defaults are HDD-era).
  bool ssd_throttles = false;
  /// jemalloc instead of tcmalloc: cheaper small allocations on the hot
  /// path (modelled as a CPU multiplier on allocation-heavy stages).
  bool jemalloc = false;
  /// TCP_NODELAY on the client (KRBD) connections.
  bool disable_nagle = false;

  // --- §3.3 non-blocking logging ---------------------------------------
  bool logging_enabled = true;
  /// Async submission (the op path never waits for the logger), interned
  /// log templates (formatting cost collapses on repeat entries) and
  /// several writer threads.
  bool nonblocking_logging = false;

  // --- §3.4 light-weight transactions ----------------------------------
  /// Merge/minimize transaction ops and syscalls, and drop
  /// OP_SETALLOCHINT (fallocate) for random small writes.
  bool light_transactions = false;
  /// Write-through metadata cache: no metadata reads on the write path.
  bool writethrough_meta_cache = false;

  /// Optional §3.1 extra: per-client in-order ack delivery (the paper's
  /// opt-in fix for the unordered-ack side effect of batched completions).
  bool ordered_acks = false;

  /// Allocation-heavy-stage CPU multiplier implied by the allocator choice.
  double alloc_cpu_multiplier() const { return jemalloc ? 1.0 : 1.7; }

  static Profile community();
  static Profile afceph();
  /// Fig. 9 ladder: 0=community, 1=+lock, 2=+throttle/tuning,
  /// 3=+non-blocking logging, 4=+light transactions (== afceph).
  static Profile ladder(int step);
  static const char* ladder_name(int step);
};

}  // namespace afc::core
