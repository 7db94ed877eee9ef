#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace afc {

/// I/O payload that is either *real bytes* (small metadata / verified test
/// data) or a *virtual pattern* (seed + offset + length, like fio's verify
/// patterns). Benchmarks push terabytes of virtual data without allocating;
/// correctness tests materialize and compare actual bytes. Virtual payloads
/// slice in O(1): byte i of a pattern stream is a pure function of
/// (seed, stream_offset + i), so carving a window out of a 4 MiB virtual
/// extent never materializes it.
class Payload {
 public:
  Payload() = default;

  static Payload pattern(std::uint64_t len, std::uint64_t seed, std::uint64_t stream_off = 0);
  static Payload bytes(std::vector<std::uint8_t> data);
  static Payload zeros(std::uint64_t len) { return pattern(len, 0); }

  std::uint64_t size() const { return len_; }
  bool is_virtual() const { return !bytes_.has_value(); }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t stream_offset() const { return off_; }

  /// Deterministic content hash: FNV-1a over real bytes; O(1) identity mix
  /// for virtual payloads (two virtual payloads hash equal iff same
  /// seed/offset/length, i.e. identical content).
  std::uint64_t fingerprint() const;

  /// Expand to real bytes (deterministic for virtual payloads).
  std::vector<std::uint8_t> materialize() const;
  /// materialize() into `out`, which must hold size() bytes.
  void copy_to(std::uint8_t* out) const;

  /// Sub-range [off, off+len) of this payload as a new payload (O(1) for
  /// virtual payloads, copy for real ones).
  Payload slice(std::uint64_t off, std::uint64_t len) const;

  /// Same bytes? Real bytes are checked against a virtual pattern in place,
  /// without expanding the pattern into a buffer.
  bool content_equals(const Payload& other) const;

 private:
  std::uint64_t len_ = 0;
  std::uint64_t seed_ = 0;  // pattern seed for virtual payloads
  std::uint64_t off_ = 0;   // position within the pattern stream
  std::optional<std::vector<std::uint8_t>> bytes_;
};

}  // namespace afc
