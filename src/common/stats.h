#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace afc {

/// Named monotonic counters shared by the simulated subsystems (syscalls
/// issued, KV bytes compacted, journal stalls, ...). Cheap to bump, easy to
/// dump at the end of a run, and the unit tests assert on them to check that
/// an optimization really removed the work it claims to remove.
class Counters {
 public:
  void add(const std::string& name, std::uint64_t n = 1) { counters_[name] += n; }
  std::uint64_t get(const std::string& name) const;
  /// Add every counter of `other` into this set (cluster-wide sums).
  void merge(const Counters& other) {
    for (const auto& [name, n] : other.counters_) counters_[name] += n;
  }
  void clear() { counters_.clear(); }

  const std::map<std::string, std::uint64_t>& all() const { return counters_; }
  std::string to_string() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace afc
