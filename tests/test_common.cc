// Tests for common/: RNG, histogram, time series, payloads, interning,
// counters, table rendering.

#include <gtest/gtest.h>

#include <map>

#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/interned.h"
#include "common/payload.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timeseries.h"

namespace afc {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.next() == b.next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; i++) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; i++) {
    const auto v = r.uniform_int(3, 10);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 10u);
    saw_lo |= v == 3;
    saw_hi |= v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; i++) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng r(13);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; i++) counts[r.zipf(1000, 0.9)]++;
  EXPECT_GT(counts[0], counts[500] * 5);
  for (const auto& [rank, n] : counts) ASSERT_LT(rank, 1000u);
}

TEST(Rng, ZipfThetaZeroIsUniform) {
  Rng r(17);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 30000; i++) counts[r.zipf(10, 0.0)]++;
  for (int k = 0; k < 10; k++) EXPECT_NEAR(counts[std::uint64_t(k)], 3000, 400);
}

// Zipf draws are pinned bit for bit: the per-(n, theta) normaliser and
// constants are memoised process-wide, and no stream may see a different
// rank for it. The values were recorded from the per-stream implementation
// that summed zeta once per stream, in the same order.
constexpr std::uint64_t kZipfBig[64] = {
    365694, 207, 4173288, 69651, 270171, 12925, 9, 16688, 35, 2032404,
    8407, 613771, 50948, 1, 770, 6852, 38, 0, 10879, 2056,
    17, 737106, 33890, 5023, 373950, 12, 1100, 2538824, 4867, 841100,
    1, 26914, 91166, 111, 4193147, 86005, 252039, 810, 6140, 294563,
    643373, 19, 2070, 13645, 0, 920, 29847, 11212, 157425, 62,
    130677, 2919, 1667, 341667, 22978, 21, 119090, 24, 33484, 1,
    34903, 3265704, 558834, 3059771};
constexpr std::uint64_t kZipfSmall[64] = {
    387, 17, 924, 206, 345, 106, 1, 117, 7, 718,
    89, 467, 183, 0, 32, 81, 7, 0, 99, 49,
    5, 500, 156, 71, 390, 1, 37, 777, 71, 524,
    0, 142, 229, 13, 925, 224, 337, 32, 78, 357,
    475, 5, 49, 108, 0, 34, 148, 100, 282, 9,
    263, 57, 44, 377, 133, 5, 254, 6, 155, 0,
    158, 848, 452, 829};
// One stream alternating zipf(5242880, 0.99) and zipf(1000, 0.9).
constexpr std::uint64_t kZipfAlternating[64] = {
    365694, 17, 4173288, 206, 270171, 106, 9, 117, 35, 718,
    8407, 467, 50948, 0, 770, 81, 38, 0, 10879, 49,
    17, 500, 33890, 71, 373950, 1, 1100, 777, 4867, 524,
    1, 142, 91166, 13, 4193147, 224, 252039, 32, 6140, 357,
    643373, 5, 2070, 108, 0, 34, 29847, 100, 157425, 9,
    130677, 57, 1667, 377, 22978, 5, 119090, 6, 33484, 0,
    34903, 848, 558834, 829};
constexpr std::uint64_t kBigN = 5242880;  // a 20 GiB image in 4K blocks

TEST(Rng, ZipfGoldenDraws) {
  Rng big(42), small(42);
  for (int i = 0; i < 64; i++) {
    EXPECT_EQ(big.zipf(kBigN, 0.99), kZipfBig[i]) << "draw " << i;
    EXPECT_EQ(small.zipf(1000, 0.9), kZipfSmall[i]) << "draw " << i;
  }
}

TEST(Rng, ZipfStreamsSharingAnEntryDrawTheGolden) {
  Rng a(42), b(42);
  for (int i = 0; i < 64; i++) {
    EXPECT_EQ(a.zipf(1000, 0.9), kZipfSmall[i]) << "draw " << i;
    EXPECT_EQ(b.zipf(1000, 0.9), kZipfSmall[i]) << "draw " << i;
  }
}

TEST(Rng, ZipfAlternatingPairsDrawTheGolden) {
  Rng r(42);
  for (int i = 0; i < 64; i++) {
    const std::uint64_t v = i % 2 == 0 ? r.zipf(kBigN, 0.99) : r.zipf(1000, 0.9);
    EXPECT_EQ(v, kZipfAlternating[i]) << "draw " << i;
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.next() == b.next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  h.record(5);
  h.record(5);
  h.record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_NEAR(h.mean(), 17.0 / 3.0, 1e-9);
  EXPECT_EQ(h.percentile(0.0), 5u);
  EXPECT_EQ(h.percentile(1.0), 7u);
}

TEST(Histogram, PercentileAccuracyWithinBucketError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; v++) h.record(v);
  // Log-linear buckets guarantee ~1/64 relative error.
  EXPECT_NEAR(double(h.percentile(0.5)), 50000.0, 50000.0 / 32.0);
  EXPECT_NEAR(double(h.percentile(0.99)), 99000.0, 99000.0 / 32.0);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a, b, combined;
  Rng r(3);
  for (int i = 0; i < 1000; i++) {
    const auto v = r.uniform_int(1, 1000000);
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_EQ(a.percentile(0.9), combined.percentile(0.9));
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(100);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, HugeValues) {
  Histogram h;
  const std::uint64_t big = 1ull << 62;
  h.record(big);
  EXPECT_NEAR(double(h.percentile(0.5)), double(big), double(big) / 32.0);
}

TEST(TimeSeries, RatesPerInterval) {
  TimeSeries ts(100 * kMillisecond);
  for (int i = 0; i < 50; i++) ts.add(Time(i) * 10 * kMillisecond);  // 0..490ms
  ASSERT_EQ(ts.size(), 5u);
  for (std::size_t i = 0; i < 5; i++) EXPECT_DOUBLE_EQ(ts.rate(i), 100.0);  // 10/100ms
  EXPECT_DOUBLE_EQ(ts.mean_rate(0, 5), 100.0);
  EXPECT_NEAR(ts.cov(0, 5), 0.0, 1e-12);
}

TEST(TimeSeries, CovDetectsFluctuation) {
  TimeSeries steady(100 * kMillisecond), bursty(100 * kMillisecond);
  for (int b = 0; b < 10; b++) {
    for (int i = 0; i < 10; i++) steady.add(Time(b) * 100 * kMillisecond + 1);
    const int n = (b % 2 == 0) ? 19 : 1;
    for (int i = 0; i < n; i++) bursty.add(Time(b) * 100 * kMillisecond + 1);
  }
  EXPECT_LT(steady.cov(0, 10), 0.01);
  EXPECT_GT(bursty.cov(0, 10), 0.5);
}

TEST(Payload, VirtualMaterializeDeterministic) {
  auto p = Payload::pattern(64, 42);
  auto a = p.materialize();
  auto b = p.materialize();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_NE(a, Payload::pattern(64, 43).materialize());
}

TEST(Payload, SliceOfVirtualMatchesMaterializedSlice) {
  auto p = Payload::pattern(4096, 7);
  auto full = p.materialize();
  auto s = p.slice(100, 200);
  EXPECT_TRUE(s.is_virtual());  // O(1) slice
  auto sm = s.materialize();
  ASSERT_EQ(sm.size(), 200u);
  for (int i = 0; i < 200; i++) EXPECT_EQ(sm[std::size_t(i)], full[std::size_t(100 + i)]);
}

TEST(Payload, SliceClampsAtEnd) {
  auto p = Payload::pattern(100, 1);
  EXPECT_EQ(p.slice(90, 50).size(), 10u);
  EXPECT_EQ(p.slice(200, 50).size(), 0u);
}

TEST(Payload, RealBytesRoundTrip) {
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  auto p = Payload::bytes(data);
  EXPECT_FALSE(p.is_virtual());
  EXPECT_EQ(p.materialize(), data);
  EXPECT_TRUE(p.content_equals(Payload::bytes(data)));
}

TEST(Payload, ContentEqualsAcrossRepresentations) {
  auto v = Payload::pattern(256, 99);
  auto r = Payload::bytes(v.materialize());
  EXPECT_TRUE(v.content_equals(r));
  EXPECT_TRUE(r.content_equals(v));
  EXPECT_FALSE(v.content_equals(Payload::pattern(256, 100)));
}

// Byte i of pattern stream `seed`, written out one byte at a time.
std::uint8_t reference_pattern_byte(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t x = seed + (i >> 3);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return std::uint8_t(x >> ((i & 7) * 8));
}

TEST(Payload, MaterializeMatchesBytewise) {
  const std::uint64_t seed = 0x1234abcdull;
  for (std::uint64_t off = 0; off < 16; off++) {
    for (std::uint64_t len : {0, 1, 7, 8, 9, 4095, 4096, 4097}) {
      const auto bytes = Payload::pattern(len, seed, off).materialize();
      ASSERT_EQ(bytes.size(), len);
      for (std::uint64_t i = 0; i < len; i++) {
        ASSERT_EQ(bytes[i], reference_pattern_byte(seed, off + i))
            << "off " << off << " len " << len << " byte " << i;
      }
    }
  }
}

TEST(Payload, ContentEqualsBytesVsPatternAgreesWithMaterialize) {
  for (std::uint64_t off : {0, 3, 8}) {
    for (std::uint64_t len : {1, 13, 4096}) {
      const Payload pattern = Payload::pattern(len, 77, off);
      auto same = pattern.materialize();
      auto flipped = same;
      flipped[len / 2] ^= 0x01;
      const std::vector<std::uint8_t> shorter(same.begin(), same.end() - 1);
      for (const auto& bytes : {same, flipped, shorter}) {
        const Payload real = Payload::bytes(bytes);
        const bool want = real.materialize() == pattern.materialize();
        EXPECT_EQ(real.content_equals(pattern), want) << "off " << off << " len " << len;
        EXPECT_EQ(pattern.content_equals(real), want) << "off " << off << " len " << len;
      }
      EXPECT_TRUE(Payload::bytes(same).content_equals(pattern));
      EXPECT_FALSE(Payload::bytes(flipped).content_equals(pattern));
    }
  }
}

TEST(Payload, FingerprintIdentity) {
  EXPECT_EQ(Payload::pattern(4096, 5).fingerprint(), Payload::pattern(4096, 5).fingerprint());
  EXPECT_NE(Payload::pattern(4096, 5).fingerprint(), Payload::pattern(4096, 6).fingerprint());
  EXPECT_NE(Payload::pattern(4096, 5).fingerprint(),
            Payload::pattern(8192, 5).fingerprint());
  // Same-content real payloads hash equal.
  auto a = Payload::bytes({9, 8, 7});
  auto b = Payload::bytes({9, 8, 7});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(InternPool, IdempotentIds) {
  InternPool pool;
  const auto a = pool.intern("osd: dispatch op");
  const auto b = pool.intern("osd: journal write");
  const auto a2 = pool.intern("osd: dispatch op");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.lookup(a), "osd: dispatch op");
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(InternPool, FindDoesNotInsert) {
  InternPool pool;
  InternPool::Id id;
  EXPECT_FALSE(pool.find("missing", id));
  pool.intern("present");
  EXPECT_TRUE(pool.find("present", id));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Counters, AddAndQuery) {
  Counters c;
  c.add("x");
  c.add("x", 4);
  c.add("y", 2);
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_EQ(c.get("y"), 2u);
  EXPECT_EQ(c.get("z"), 0u);
  c.clear();
  EXPECT_EQ(c.get("x"), 0u);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "iops"});
  t.row({"community", "16.0K"});
  t.row({"afceph", "81.3K"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("81.3K"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // 4 lines: header, rule, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Histogram, RecordNBulk) {
  Histogram h;
  h.record_n(1000, 500);
  h.record_n(2000, 500);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 1500.0, 40.0);
  h.record_n(5, 0);  // no-op
  EXPECT_EQ(h.count(), 1000u);
}

TEST(TimeSeries, ToStringRendersRates) {
  TimeSeries ts(100 * kMillisecond);
  for (int i = 0; i < 30; i++) ts.add(Time(i) * 10 * kMillisecond);
  const auto s1 = ts.to_string();
  EXPECT_NE(s1.find("t=0.0s"), std::string::npos);
  EXPECT_NE(s1.find("100"), std::string::npos);
  const auto s2 = ts.to_string(3);
  EXPECT_LT(s2.size(), s1.size());
}

TEST(Payload, ZerosAndEmpty) {
  auto z = Payload::zeros(16);
  EXPECT_TRUE(z.is_virtual());
  EXPECT_EQ(z.size(), 16u);
  Payload empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.materialize().empty());
  EXPECT_TRUE(empty.content_equals(Payload::pattern(0, 9)));
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::kiops(81300), "81.3K");
  EXPECT_EQ(Table::kiops(950), "950");
}

TEST(Crc32c, MatchesRfc3720TestVectors) {
  // iSCSI CRC32C test vectors (RFC 3720 §B.4).
  std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  std::vector<std::uint8_t> asc(32), desc(32);
  for (int i = 0; i < 32; i++) {
    asc[std::size_t(i)] = std::uint8_t(i);
    desc[std::size_t(i)] = std::uint8_t(31 - i);
  }
  EXPECT_EQ(crc32c(asc.data(), asc.size()), 0x46DD794Eu);
  EXPECT_EQ(crc32c(desc.data(), desc.size()), 0x113FDB5Cu);

  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalFeedEqualsOneShot) {
  std::vector<std::uint8_t> buf(257);
  for (std::size_t i = 0; i < buf.size(); i++) buf[i] = std::uint8_t(i * 31 + 7);
  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  for (std::size_t split : {std::size_t(0), std::size_t(1), std::size_t(100), buf.size()}) {
    const std::uint32_t head = crc32c(buf.data(), split);
    EXPECT_EQ(crc32c(buf.data() + split, buf.size() - split, head), whole) << split;
  }
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_NE(whole, crc32c(buf.data(), buf.size() - 1));  // length-sensitive
}

}  // namespace
}  // namespace afc
