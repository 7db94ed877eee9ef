#include "common/payload.h"

#include <algorithm>

namespace afc {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// Byte i of a pattern stream is byte (i & 7), little-endian, of the stream
// word mix64(seed + (i >> 3)). Calls f(word, lo, hi) once per word that
// [pos, pos + len) touches, where lanes [lo, hi) of the word lie in the range,
// until f returns false; returns whether every call returned true.
template <class F>
bool for_each_word(std::uint64_t seed, std::uint64_t pos, std::uint64_t len, F&& f) {
  while (len > 0) {
    const unsigned lo = unsigned(pos & 7);
    const unsigned hi = unsigned(std::min<std::uint64_t>(8, lo + len));
    if (!f(mix64(seed + (pos >> 3)), lo, hi)) return false;
    pos += hi - lo;
    len -= hi - lo;
  }
  return true;
}

std::uint64_t load_le(const std::uint8_t* p) {
  std::uint64_t w = 0;
  for (unsigned k = 0; k < 8; k++) w |= std::uint64_t(p[k]) << (k * 8);
  return w;
}

void store_le(std::uint8_t* p, std::uint64_t w) {
  for (unsigned k = 0; k < 8; k++) p[k] = std::uint8_t(w >> (k * 8));
}

}  // namespace

Payload Payload::pattern(std::uint64_t len, std::uint64_t seed, std::uint64_t stream_off) {
  Payload p;
  p.len_ = len;
  p.seed_ = seed;
  p.off_ = stream_off;
  return p;
}

Payload Payload::bytes(std::vector<std::uint8_t> data) {
  Payload p;
  p.len_ = data.size();
  p.bytes_ = std::move(data);
  return p;
}

std::uint64_t Payload::fingerprint() const {
  if (is_virtual()) {
    return mix64(seed_ ^ mix64(off_ ^ mix64(len_ ^ 0x5bd1e9955bd1e995ull)));
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : *bytes_) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint8_t> Payload::materialize() const {
  if (!is_virtual()) return *bytes_;
  std::vector<std::uint8_t> out(len_);
  copy_to(out.data());
  return out;
}

void Payload::copy_to(std::uint8_t* out) const {
  if (!is_virtual()) {
    std::copy(bytes_->begin(), bytes_->end(), out);
    return;
  }
  for_each_word(seed_, off_, len_, [&out](std::uint64_t w, unsigned lo, unsigned hi) {
    if (hi - lo == 8) {
      store_le(out, w);
      out += 8;
    } else {
      for (unsigned k = lo; k < hi; k++) *out++ = std::uint8_t(w >> (k * 8));
    }
    return true;
  });
}

Payload Payload::slice(std::uint64_t off, std::uint64_t len) const {
  if (off > len_) off = len_;
  if (off + len > len_) len = len_ - off;
  if (is_virtual()) return Payload::pattern(len, seed_, off_ + off);
  return Payload::bytes(std::vector<std::uint8_t>(bytes_->begin() + long(off),
                                                  bytes_->begin() + long(off + len)));
}

bool Payload::content_equals(const Payload& other) const {
  if (len_ != other.len_) return false;
  if (len_ == 0) return true;  // all empty payloads are equal
  if (is_virtual() && other.is_virtual()) return seed_ == other.seed_ && off_ == other.off_;
  if (!is_virtual() && !other.is_virtual()) return *bytes_ == *other.bytes_;
  const Payload& pattern = is_virtual() ? *this : other;
  const std::uint8_t* in = (is_virtual() ? *other.bytes_ : *bytes_).data();
  return for_each_word(pattern.seed_, pattern.off_, len_,
                       [&in](std::uint64_t w, unsigned lo, unsigned hi) {
                         if (hi - lo == 8) {
                           const bool same = load_le(in) == w;
                           in += 8;
                           return same;
                         }
                         for (unsigned k = lo; k < hi; k++) {
                           if (*in++ != std::uint8_t(w >> (k * 8))) return false;
                         }
                         return true;
                       });
}

}  // namespace afc
