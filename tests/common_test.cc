// Unit tests for src/common: time conversions, RNG determinism and
// distribution sanity, streaming stats, percentile estimation, the
// 16-bit rate codec, and wire-size accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "common/flat_map.h"
#include "common/ratecode.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/wire.h"

namespace ft {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(from_us(1.0), kMicrosecond);
  EXPECT_EQ(from_ms(2.5), 2 * kMillisecond + 500 * kMicrosecond);
  EXPECT_DOUBLE_EQ(to_us(kMillisecond), 1000.0);
  EXPECT_DOUBLE_EQ(to_sec(kSecond), 1.0);
}

TEST(TimeTest, TxTimeMatchesLinkSpeeds) {
  // 1500 bytes at 10 Gbit/s = 1.2 us exactly.
  EXPECT_EQ(tx_time(1500, 10e9), 1'200 * kNanosecond);
  // 84 bytes (minimum wire frame) at 40 Gbit/s = 16.8 ns.
  EXPECT_EQ(tx_time(84, 40e9), 16'800);  // picoseconds
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, BelowIsUnbiasedAcrossRange) {
  Rng r(13);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng r(99);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.1);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(3);
  Rng child = parent.fork();
  // Child stream should not replicate the parent stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 3);
}

TEST(StreamingStatsTest, Moments) {
  StreamingStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(StreamingStatsTest, MergeMatchesCombined) {
  Rng r(5);
  StreamingStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(0, 10);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(StreamingStatsTest, MergeHandlesEmptySides) {
  // Regression: merging with an empty side must not fold the empty
  // side's zero-initialized min/max into the result (a merge of
  // all-negative samples with an empty accumulator would otherwise
  // report max = 0).
  StreamingStats neg;
  for (double x : {-5.0, -3.0, -8.0}) neg.add(x);

  StreamingStats a = neg;
  a.merge(StreamingStats{});  // non-empty <- empty
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), -8.0);
  EXPECT_DOUBLE_EQ(a.max(), -3.0);

  StreamingStats b;
  b.merge(neg);  // empty <- non-empty
  EXPECT_EQ(b.count(), 3u);
  EXPECT_DOUBLE_EQ(b.min(), -8.0);
  EXPECT_DOUBLE_EQ(b.max(), -3.0);
  EXPECT_DOUBLE_EQ(b.mean(), neg.mean());

  StreamingStats c;
  c.merge(StreamingStats{});  // empty <- empty
  EXPECT_EQ(c.count(), 0u);
  EXPECT_DOUBLE_EQ(c.min(), 0.0);
  EXPECT_DOUBLE_EQ(c.max(), 0.0);
}

TEST(PercentileTest, ExactQuantiles) {
  PercentileSampler p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 100.0);
  EXPECT_NEAR(p.p50(), 50.5, 1e-9);
  EXPECT_NEAR(p.p99(), 99.01, 1e-9);
}

TEST(PercentileTest, AddAfterQueryResorts) {
  PercentileSampler p;
  p.add(10);
  p.add(20);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 20.0);
  p.add(5);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 5.0);
}

TEST(PercentileTest, SortFastPathMatchesUnsortedPath) {
  Rng rng(17);
  PercentileSampler p;
  for (int i = 0; i < 10000; ++i) p.add(rng.uniform(0, 1000));
  const double p50_copy = p.p50();
  const double p99_copy = p.p99();
  p.sort();  // zero-copy path from here on
  EXPECT_DOUBLE_EQ(p.p50(), p50_copy);
  EXPECT_DOUBLE_EQ(p.p99(), p99_copy);
}

TEST(PercentileTest, ConcurrentPercentileOnSharedSampler) {
  // Regression: percentile() used to cache a sort through `mutable`
  // members, so two threads querying a shared (logically const) sampler
  // raced on the sample vector. It now never mutates -- this test is
  // the TSan witness.
  PercentileSampler p;
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) p.add(rng.uniform(0, 100));
  const PercentileSampler& shared = p;
  const double want_p50 = shared.p50();
  const double want_p99 = shared.p99();
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(shared.p50(), want_p50);
        EXPECT_DOUBLE_EQ(shared.p99(), want_p99);
      }
    });
  }
  for (auto& t : readers) t.join();
}

TEST(TimeSeriesBinsTest, BinningAndRates) {
  TimeSeriesBins bins(0.1, 10);
  bins.add(0.05, 3.0);
  bins.add(0.06, 1.0);
  bins.add(0.95, 2.0);
  bins.add(5.0, 100.0);  // out of range: dropped
  EXPECT_DOUBLE_EQ(bins.bin_sum(0), 4.0);
  EXPECT_DOUBLE_EQ(bins.bin_sum(9), 2.0);
  EXPECT_DOUBLE_EQ(bins.bin_rate(0), 40.0);
}

TEST(RateCodeTest, RoundTripAccuracy) {
  // All rates the datacenter cares about encode within the documented
  // relative error.
  for (double rate = 1e6; rate <= 100e9; rate *= 1.37) {
    const double decoded = decode_rate(encode_rate(rate));
    EXPECT_NEAR(decoded, rate, rate * kRateCodeMaxRelError * 2)
        << "rate=" << rate;
  }
}

TEST(RateCodeTest, EdgeCases) {
  EXPECT_EQ(encode_rate(0.0), 0);
  EXPECT_EQ(encode_rate(-5.0), 0);
  EXPECT_DOUBLE_EQ(decode_rate(0), 0.0);
  // Tiny rates below granularity go to zero.
  EXPECT_EQ(encode_rate(10.0), 0);
  // Monotonicity over a broad sweep, well past the largest code
  // (~4.4e15 bps) so the clamp is covered too.
  double prev = -1.0;
  for (double rate = 1e3; rate <= 1e17; rate *= 1.1) {
    const double d = decode_rate(encode_rate(rate));
    EXPECT_GE(d, prev) << "rate=" << rate;
    prev = d;
  }
}

// The straightforward halving-loop encoder, kept as the reference the
// loop-free encode_rate must match code for code. Exponent 31 does not
// fit the 5-bit normal exponent field (e + 1), so it clamps.
std::uint16_t encode_rate_reference(double rate_bps) {
  if (!(rate_bps > 0.0)) return 0;
  double units = rate_bps / 1e3;
  if (units < 1.0) return 0;
  if (units < 2048.0) return static_cast<std::uint16_t>(units);
  int e = 0;
  while (units >= 4096.0 && e < 31) {
    units /= 2.0;
    ++e;
  }
  if (e == 31) return 0xFFFF;
  const std::uint32_t m = static_cast<std::uint32_t>(units + 0.5) - 2048u;
  return static_cast<std::uint16_t>(((e + 1) << 11) | std::min(m, 2047u));
}

// Counts encode_rate / reference disagreements over `rates`, recording
// the first one.
struct CodecDiff {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  double first = 0.0;

  void check(double rate) {
    ++checked;
    if (encode_rate(rate) != encode_rate_reference(rate)) {
      if (mismatches++ == 0) first = rate;
    }
  }
  void check_with_neighbours(double rate) {
    check(rate);
    check(std::nextafter(rate, std::numeric_limits<double>::infinity()));
    check(std::nextafter(rate, -std::numeric_limits<double>::infinity()));
  }
};

TEST(RateCodeTest, MaxCodeClampsEverythingAbove) {
  const std::uint16_t max_code = 0xFFFF;
  const double max_rate = decode_rate(max_code);
  EXPECT_NEAR(max_rate, 4.397e15, 1e12);
  EXPECT_EQ(encode_rate(max_rate), max_code);
  // The window the old loop dropped into code (32 << 11) truncation.
  for (const double rate : {4.4e15, 5e15, 8.7e15, 8.8e15, 1e16, 1e300,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(encode_rate(rate), max_code) << "rate=" << rate;
  }
}

TEST(RateCodeTest, LoopFreeEncoderMatchesReference) {
  CodecDiff diff;
  // Every code's decoded value and its one-ulp neighbours: each bin edge
  // and rounding boundary of the format.
  for (std::uint32_t code = 0; code <= 0xFFFF; ++code) {
    diff.check_with_neighbours(decode_rate(static_cast<std::uint16_t>(code)));
  }
  // Specials.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double rate :
       {0.0, -0.0, -1.0, -1e9, -kInf, kInf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max()}) {
    diff.check(rate);
  }
  // The denormal/normal boundary and the first exponent step.
  diff.check_with_neighbours(2048e3);
  diff.check_with_neighbours(4096e3);
  // The window around the clamp, [4.3e15, 9e15].
  for (double rate = 4.3e15; rate <= 9e15; rate += 2.5e9) {
    diff.check_with_neighbours(rate);
  }
  // Seeded bulk: uniform, log-uniform, and raw bit patterns (which
  // cover negatives, NaNs, infinities and denormals).
  Rng rng(2024);
  for (int i = 0; i < 400'000; ++i) {
    diff.check(rng.uniform(0.0, 1e16));
    diff.check(std::pow(10.0, rng.uniform(-3.0, 20.0)));
    diff.check(std::bit_cast<double>(rng.next()));
  }
  EXPECT_GE(diff.checked, 1'000'000u);
  EXPECT_EQ(diff.mismatches, 0u)
      << "first mismatch at rate " << diff.first << ": encode_rate "
      << encode_rate(diff.first) << ", reference "
      << encode_rate_reference(diff.first);
}

TEST(RateCodeTest, CodesAreCompact) {
  // Distinct rates 2% apart must map to distinct codes (threshold 0.01
  // notifications must survive quantization).
  const double r1 = 1e9;
  const double r2 = 1.02e9;
  EXPECT_NE(encode_rate(r1), encode_rate(r2));
}

TEST(WireTest, MinimumFrame) {
  // A 4-byte flowlet-end message inside TCP/IP is still a minimum frame.
  EXPECT_EQ(wire_bytes_tcp(4), kMinFrame + kEthPreambleIfg);  // 84
  // A 0-byte pure ACK too.
  EXPECT_EQ(wire_bytes_tcp(0), 84);
}

TEST(WireTest, FullSegment) {
  EXPECT_EQ(wire_bytes_tcp(kMss), kMss + 40 + 18 + 20);
}


TEST(FlatMapTest, InsertFindErase) {
  FlatMap64<std::uint32_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.emplace(1, 10));
  EXPECT_TRUE(m.emplace(2, 20));
  EXPECT_FALSE(m.emplace(1, 99));  // duplicate rejected, value kept
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(2));
  EXPECT_FALSE(m.contains(3));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, ZeroKeyIsValid) {
  // Wire-level flow keys can be 0: no sentinel key exists.
  FlatMap64<int> m;
  EXPECT_FALSE(m.contains(0));
  EXPECT_TRUE(m.emplace(0, 7));
  ASSERT_NE(m.find(0), nullptr);
  EXPECT_EQ(*m.find(0), 7);
  EXPECT_TRUE(m.erase(0));
  EXPECT_FALSE(m.contains(0));
}

TEST(FlatMapTest, GrowthAndChurnKeepEveryEntryFindable) {
  FlatMap64<std::uint64_t> m(16);
  Rng rng(3);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t k = rng.next();
    if (m.emplace(k, k * 2)) keys.push_back(k);
    if (keys.size() > 64 && rng.uniform() < 0.4) {
      const auto pick = rng.below(keys.size());
      EXPECT_TRUE(m.erase(keys[pick]));
      keys[pick] = keys.back();
      keys.pop_back();
    }
  }
  EXPECT_EQ(m.size(), keys.size());
  for (const std::uint64_t k : keys) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k * 2);
  }
}

TEST(FlatMapTest, BackshiftDeletionSurvivesCollisionClusters) {
  // Dense sequential keys produce probe clusters; deleting from the
  // middle of a cluster must keep every remaining probe chain intact
  // (the backward-shift invariant).
  FlatMap64<int> m(16);
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(m.emplace(k, static_cast<int>(k)));
  }
  for (std::uint64_t k = 0; k < 200; k += 3) EXPECT_TRUE(m.erase(k));
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(m.find(k), nullptr) << k;
    } else {
      ASSERT_NE(m.find(k), nullptr) << k;
      EXPECT_EQ(*m.find(k), static_cast<int>(k));
    }
  }
  // Reinsert the deleted keys: the holes are reusable.
  for (std::uint64_t k = 0; k < 200; k += 3) {
    EXPECT_TRUE(m.emplace(k, static_cast<int>(k) + 1000));
  }
  EXPECT_EQ(m.size(), 200u);
}

TEST(FlatMapTest, ForEachVisitsEachLiveEntryOnceAfterBackshifts) {
  // 180 keys in 256 slots: long probe clusters, so the erases below
  // move entries back across the holes they leave.
  FlatMap64<std::uint64_t> m(256);
  Rng rng(11);
  std::map<std::uint64_t, std::uint64_t> live;
  for (std::uint64_t k = 0; k < 180; ++k) {
    ASSERT_TRUE(m.emplace(k, k * 3));
    live.emplace(k, k * 3);
  }
  for (int i = 0; i < 120; ++i) {
    const std::uint64_t k = rng.below(180);
    EXPECT_EQ(m.erase(k), live.erase(k) == 1);
    if (i % 2 == 0 && m.emplace(k + 1000, k)) live.emplace(k + 1000, k);
  }
  std::map<std::uint64_t, int> visits;
  m.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visits[key];
    const auto it = live.find(key);
    ASSERT_NE(it, live.end()) << "erased key " << key << " visited";
    EXPECT_EQ(value, it->second) << key;
  });
  EXPECT_EQ(visits.size(), live.size());
  EXPECT_EQ(visits.size(), m.size());
  for (const auto& [key, n] : visits) EXPECT_EQ(n, 1) << key;
}

TEST(FlatMapTest, ReservePreventsRehash) {
  FlatMap64<int> m;
  m.reserve(1000);
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_TRUE(m.emplace(k * 7919, static_cast<int>(k)));
  }
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_NE(m.find(k * 7919), nullptr);
  }
}

}  // namespace
}  // namespace ft
