// Unit tests for the common layer: units, RNG, statistics, ring buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace ceio {
namespace {

// ---------- units ----------

TEST(Units, DurationBuilders) {
  EXPECT_EQ(micros(1.0), Nanos{1'000});
  EXPECT_EQ(millis(1.0), Nanos{1'000'000});
  EXPECT_EQ(seconds(1.0), Nanos{1'000'000'000});
  EXPECT_DOUBLE_EQ(to_micros(Nanos{1'500}), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(kNanosPerSec), 1.0);
}

TEST(Units, TransmitTimeBasics) {
  // 1500 B at 1 Gbps = 12 us.
  EXPECT_EQ(transmit_time(Bytes{1500}, gbps(1.0)), Nanos{12'000});
  // 200 Gbps, 1024 B: the paper's 41.8 ns per-packet budget (§1, rounded).
  EXPECT_NEAR(static_cast<double>(transmit_time(Bytes{1024}, gbps(200.0))), 41.0, 1.0);
  EXPECT_EQ(transmit_time(Bytes{0}, gbps(1.0)), Nanos{0});
  EXPECT_EQ(transmit_time(Bytes{100}, BitsPerSec{0.0}), Nanos{0});
  // Tiny transfers still take at least 1 ns (forward progress).
  EXPECT_GE(transmit_time(Bytes{1}, gbps(1000.0)), Nanos{1});
}

TEST(Units, RateOfInvertsTransmitTime) {
  const Bytes size{4096};
  const BitsPerSec rate = gbps(10.0);
  const Nanos t = transmit_time(size, rate);
  EXPECT_NEAR(rate_of(size, t) / rate, 1.0, 0.01);
}

TEST(Units, Interarrival) {
  EXPECT_EQ(interarrival(1e9), Nanos{1});
  EXPECT_EQ(interarrival(0.0), kNanosPerSec);
  EXPECT_EQ(interarrival(1e6), Nanos{1'000});
}

// ---------- rng ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = rng.uniform(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20'000.0, 0.25, 0.02);
}

TEST(Rng, ZipfSkewConcentratesMass) {
  Rng rng(17);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[rng.zipf(100, 0.99)];
  // Rank 0 must dominate rank 50 heavily under s=0.99.
  EXPECT_GT(counts[0], counts[50] * 10);
  // Uniform when s == 0.
  std::vector<int> flat(10, 0);
  for (int i = 0; i < 50'000; ++i) ++flat[rng.zipf(10, 0.0)];
  for (const int c : flat) EXPECT_NEAR(c, 5'000, 600);
}

TEST(Rng, ZipfBoundary) {
  Rng rng(19);
  EXPECT_EQ(rng.zipf(0, 0.99), 0u);
  EXPECT_EQ(rng.zipf(1, 0.99), 0u);
}

// The bisection ZipfTable's guide table replaced: the first CDF entry
// >= u, or n - 1 when none is.
std::size_t zipf_by_bisection(const std::vector<double>& cdf, double u) {
  std::size_t lo = 0;
  std::size_t hi = cdf.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(Rng, ZipfGuideTableMatchesBisectionOnDraws) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{1000}}) {
    for (const double s : {0.99, 1.5}) {
      const ZipfTable table(n, s);
      // zipf() consumes one next_double per call, so a second generator on
      // the same seed sees every u it drew.
      Rng sampler(29 + n);
      Rng shadow(29 + n);
      std::size_t mismatches = 0;
      for (int i = 0; i < 1'000'000; ++i) {
        const std::size_t got = sampler.zipf(n, s);
        if (got != zipf_by_bisection(table.cdf(), shadow.next_double())) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(Rng, ZipfGuideTableMatchesBisectionAtBoundaries) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{1000}}) {
    for (const double s : {0.5, 0.99, 2.0}) {
      const ZipfTable table(n, s);
      const std::vector<double>& cdf = table.cdf();
      ASSERT_EQ(cdf.size(), n);
      EXPECT_EQ(cdf.back(), 1.0);
      // Every CDF entry and every guide point j / n, each with both
      // neighbouring doubles: where a guide start or a tie could go wrong.
      std::vector<double> us{0.0};
      for (std::size_t i = 0; i < n; ++i) {
        us.push_back(cdf[i]);
        us.push_back(static_cast<double>(i) / static_cast<double>(n));
      }
      std::size_t checked = 0;
      for (const double at : us) {
        for (const double u : {std::nextafter(at, 0.0), at, std::nextafter(at, 1.0)}) {
          if (u < 0.0 || u >= 1.0) continue;
          EXPECT_EQ(table.sample(u), zipf_by_bisection(cdf, u)) << "n=" << n << " u=" << u;
          ++checked;
        }
      }
      EXPECT_GE(checked, 2 * n);
    }
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

// ---------- stats ----------

TEST(LatencyHistogram, PercentilesBracketInputs) {
  LatencyHistogram h;
  for (Nanos v{1}; v <= Nanos{1'000}; v += Nanos{1}) h.add(v);
  EXPECT_EQ(h.count(), 1'000);
  const Nanos p50 = h.p50();
  EXPECT_GE(p50, Nanos{450});
  EXPECT_LE(p50, Nanos{560});  // log-bucket resolution ~6%
  const Nanos p99 = h.p99();
  EXPECT_GE(p99, Nanos{950});
  EXPECT_LE(p99, Nanos{1'100});
}

TEST(LatencyHistogram, HandlesWideRange) {
  LatencyHistogram h;
  h.add(Nanos{1});
  h.add(seconds(10.0));
  EXPECT_EQ(h.count(), 2);
  EXPECT_GE(h.percentile(100), seconds(9.0));
}

TEST(LatencyHistogram, ClearResets) {
  LatencyHistogram h;
  h.add(Nanos{100});
  h.clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.p99(), Nanos{0});
}

TEST(RateMeter, ComputesRates) {
  RateMeter m;
  m.record(Nanos{0}, Bytes{500}, 1);
  m.record(Nanos{1'000}, Bytes{500}, 1);
  // 2 packets over a 1 us span = 2 Mpps.
  EXPECT_NEAR(m.mpps(Nanos{0}, Nanos{1'000}), 2.0, 0.01);
  EXPECT_NEAR(m.gbps(Nanos{0}, Nanos{1'000}), 8.0, 0.1);
  m.reset();
  EXPECT_EQ(m.total_packets(), 0);
  EXPECT_EQ(m.mpps(Nanos{0}, Nanos{1'000}), 0.0);
}

TEST(TablePrinterFmt, Precision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

// ---------- ring buffer ----------

TEST(RingBuffer, FifoAndCapacity) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_TRUE(rb.push(3));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.push(4));  // drop
  EXPECT_EQ(rb.pop().value(), 1);
  EXPECT_TRUE(rb.push(4));
  EXPECT_EQ(rb.pop().value(), 2);
  EXPECT_EQ(rb.pop().value(), 3);
  EXPECT_EQ(rb.pop().value(), 4);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, MonotonicHeadTail) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.pop();
  rb.push(3);
  EXPECT_EQ(rb.tail(), 3u);
  EXPECT_EQ(rb.head(), 1u);
  EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, PeekDoesNotConsume) {
  RingBuffer<int> rb(4);
  rb.push(10);
  rb.push(20);
  EXPECT_EQ(rb.peek(0), 10);
  EXPECT_EQ(rb.peek(1), 20);
  EXPECT_EQ(rb.size(), 2u);
}

// Property: a ring of any capacity preserves FIFO under interleaved ops.
class RingBufferProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingBufferProperty, FifoUnderRandomOps) {
  const std::size_t cap = GetParam();
  RingBuffer<int> rb(cap);
  Rng rng(cap);
  std::vector<int> reference;
  int next = 0;
  std::size_t ref_head = 0;
  for (int step = 0; step < 10'000; ++step) {
    if (rng.chance(0.55)) {
      const bool ok = rb.push(next);
      EXPECT_EQ(ok, reference.size() - ref_head < cap);
      if (ok) reference.push_back(next);
      ++next;
    } else {
      const auto v = rb.pop();
      if (ref_head < reference.size()) {
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, reference[ref_head++]);
      } else {
        EXPECT_FALSE(v.has_value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferProperty,
                         ::testing::Values(1, 2, 7, 64, 1024));

// ---------- safe_rate ----------

TEST(SafeRate, NormalDivision) {
  EXPECT_DOUBLE_EQ(safe_rate(10.0, 2.0), 5.0);
}

TEST(SafeRate, ZeroOpsAndZeroTimeYieldZeroNotNan) {
  EXPECT_EQ(safe_rate(0.0, 0.0), 0.0);
  EXPECT_EQ(safe_rate(0.0, 1.0), 0.0);
  EXPECT_EQ(safe_rate(100.0, 0.0), 0.0);
  EXPECT_EQ(safe_rate(100.0, -1.0), 0.0);
  EXPECT_TRUE(std::isfinite(safe_rate(0.0, 0.0)));
}

TEST(SafeRate, NonFiniteInputsYieldZero) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(safe_rate(inf, 1.0), 0.0);
  EXPECT_EQ(safe_rate(1.0, inf), 0.0);
  EXPECT_EQ(safe_rate(nan, 1.0), 0.0);
  EXPECT_EQ(safe_rate(1.0, nan), 0.0);
}

}  // namespace
}  // namespace ceio
