#include "core/profile.h"

namespace afc::core {

Profile Profile::community() { return Profile{}; }

Profile Profile::afceph() { return ladder(4); }

const char* Profile::ladder_name(int step) {
  switch (step) {
    case 0: return "community";
    case 1: return "+lock-opt";
    case 2: return "+throttle/tuning";
    case 3: return "+nonblock-logging";
    default: return "+light-txn (AFCeph)";
  }
}

Profile Profile::ladder(int step) {
  Profile p;
  p.name = ladder_name(step);
  if (step >= 1) {
    p.pending_queue = true;
    p.dedicated_completion = true;
  }
  if (step >= 2) {
    p.ssd_throttles = true;
    p.jemalloc = true;
    p.disable_nagle = true;
  }
  if (step >= 3) {
    p.nonblocking_logging = true;
  }
  if (step >= 4) {
    p.name = "AFCeph";
    p.light_transactions = true;
    p.writethrough_meta_cache = true;
  }
  return p;
}

}  // namespace afc::core
