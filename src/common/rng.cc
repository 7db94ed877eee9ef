#include "common/rng.h"

#include <bit>
#include <map>
#include <mutex>
#include <utility>

namespace afc {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Avoid the all-zero state (splitmix makes this vanishingly unlikely, but
  // a zero seed chain must still work).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return double(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  return lo + next() % span;
}

double Rng::exponential(double mean) {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  double u2 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mean, double sigma) {
  const double z = normal(0.0, 1.0);
  return mean * std::exp(sigma * z - 0.5 * sigma * sigma);
}

const Rng::ZipfTable& Rng::zipf_table(std::uint64_t n, double theta) {
  // Keyed on theta's bit pattern: exact, and total even for NaN. std::map
  // nodes never move, so the returned reference outlives the lock.
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, std::uint64_t>, ZipfTable> memo;
  const std::lock_guard<std::mutex> lock(mu);
  auto [it, fresh] = memo.try_emplace({n, std::bit_cast<std::uint64_t>(theta)});
  ZipfTable& t = it->second;
  if (fresh) {
    double zeta = 0.0;
    for (std::uint64_t i = 1; i <= n; i++) zeta += 1.0 / std::pow(double(i), theta);
    t.n = n;
    t.theta = theta;
    t.zeta = zeta;
    t.alpha = 1.0 / (1.0 - theta);
    t.eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
            (1.0 - (1.0 / std::pow(2.0, theta)) / zeta);
    t.rank1 = 1.0 + std::pow(0.5, theta);
  }
  return t;
}

std::uint64_t Rng::zipf(std::uint64_t n, double theta) {
  if (n <= 1) return 0;
  if (theta <= 0.0) return uniform_int(0, n - 1);
  if (zipf_ == nullptr || zipf_->n != n || zipf_->theta != theta) zipf_ = &zipf_table(n, theta);
  // Inverse-CDF by linear walk would be O(n); use the standard rejection-free
  // approximation (Gray et al.) good enough for workload skew.
  const ZipfTable& t = *zipf_;
  const double u = uniform();
  const double uz = u * t.zeta;
  if (uz < 1.0) return 0;
  if (uz < t.rank1) return 1;
  auto v = std::uint64_t(double(n) * std::pow(t.eta * u - t.eta + 1.0, t.alpha));
  if (v >= n) v = n - 1;
  return v;
}

Rng Rng::fork() {
  return Rng(next() ^ 0xa0761d6478bd642full);
}

}  // namespace afc
