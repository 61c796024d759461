// Tests for the log-bucketed latency histogram.
#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <gtest/gtest.h>

#include "common/rng.h"

namespace lunule {
namespace {

TEST(Histogram, EmptyBehaviour) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, MeanAndMaxAreExact) {
  Histogram h;
  h.add(1.0);
  h.add(3.0);
  h.add(8.0);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 8.0);
}

TEST(Histogram, PercentilesWithinBucketResolution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  // ~8% relative resolution expected.
  EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.1);
  EXPECT_NEAR(h.percentile(90), 900.0, 900.0 * 0.1);
  EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.1);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(Histogram, SingleValueDistribution) {
  Histogram h;
  h.add(42.0, /*count=*/1000);
  EXPECT_EQ(h.total_count(), 1000u);
  EXPECT_NEAR(h.percentile(1), 42.0, 42.0 * 0.1);
  EXPECT_NEAR(h.percentile(99), 42.0, 42.0 * 0.1);
}

TEST(Histogram, MergeCombinesDistributions) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) a.add(10.0);
  for (int i = 0; i < 100; ++i) b.add(1000.0);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 200u);
  EXPECT_NEAR(a.percentile(25), 10.0, 2.0);
  EXPECT_NEAR(a.percentile(75), 1000.0, 100.0);
  EXPECT_DOUBLE_EQ(a.max_value(), 1000.0);
}

TEST(Histogram, HandlesSkewedTail) {
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    h.add(1.0 + rng.next_double() * 4.0);  // bulk in [1, 5)
  }
  h.add(100000.0);  // one outlier
  EXPECT_LT(h.percentile(99), 6.0);
  EXPECT_NEAR(h.percentile(100), 100000.0, 100000.0 * 0.1);
}

// Regression: bucket_of used a truncated log2(), and a correctly-rounded
// log2(2^k - ulp) rounds *up* to exactly k — the largest value below a
// power of two landed one whole band too high.  The exact floored exponent
// puts the three neighbours 2^k - ulp, 2^k, 2^k + ulp on the right sides
// of the boundary.
TEST(Histogram, BucketBoundariesAtPowersOfTwo) {
  for (const int k : {1, 4, 10, 20, 40}) {
    const double pow2 = std::exp2(k);
    const double below = std::nextafter(pow2, 0.0);
    const double above = std::nextafter(pow2, 2.0 * pow2);
    // The last sub-bucket of band k-1...
    EXPECT_EQ(Histogram::bucket_of(below),
              (k - 1) * Histogram::kSubBuckets + Histogram::kSubBuckets - 1)
        << "k=" << k;
    // ...then the first sub-bucket of band k.
    EXPECT_EQ(Histogram::bucket_of(pow2), k * Histogram::kSubBuckets)
        << "k=" << k;
    EXPECT_EQ(Histogram::bucket_of(above), k * Histogram::kSubBuckets)
        << "k=" << k;
  }
  // Concrete spot check from the bug report: nextafter(1024, 0) is in
  // bucket 159, not 160.
  EXPECT_EQ(Histogram::bucket_of(std::nextafter(1024.0, 0.0)), 159);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 160);
}

// The ilogb/exp2 formula bucket_of used before it read the IEEE-754 bits;
// the bit path must give exactly this value wherever the formula is
// defined (up to where frac * 16 still fits an int).
int reference_bucket_of(double value) {
  if (value < 1.0) return 0;
  const int exponent = std::min(62, std::ilogb(value));
  const double lower = std::exp2(exponent);
  const double frac = (value - lower) / lower;
  const int sub = std::min(Histogram::kSubBuckets - 1,
                           static_cast<int>(frac * Histogram::kSubBuckets));
  return std::min(Histogram::kBuckets - 1,
                  exponent * Histogram::kSubBuckets + sub);
}

TEST(Histogram, BucketOfMatchesIlogbReference) {
  int mismatches = 0;
  double first_mismatch = 0.0;
  auto check = [&](double v) {
    if (Histogram::bucket_of(v) != reference_bucket_of(v) &&
        mismatches++ == 0) {
      first_mismatch = v;
    }
  };
  for (int i = 0; i <= 1 << 20; ++i) check(static_cast<double>(i));
  for (int k = 0; k <= 62; ++k) {
    const double pow2 = std::exp2(k);
    check(std::nextafter(pow2, 0.0));
    check(pow2);
    check(std::nextafter(pow2, 2.0 * pow2));
  }
  // Random doubles below 2^62: a uniform binary exponent, random mantissa.
  Rng rng(62);
  for (int i = 0; i < 1000000; ++i) {
    check(std::ldexp(1.0 + rng.next_double(),
                     static_cast<int>(rng.next_below(62))));
  }
  // At and above 2^62 both clamp into the last sub-bucket of the 2^62 band.
  for (const double v : {0x1p62, std::nextafter(0x1p62, 0x1p63), 0x1.8p62,
                         std::nextafter(0x1p63, 0.0), 0x1p63, 0x1p70,
                         0x1.fffp87}) {
    check(v);
  }
  EXPECT_EQ(mismatches, 0) << "first at v = " << first_mismatch;
  // Where the formula overflows its int cast the bit path still clamps.
  for (const double v : {0x1p89, 0x1p1000, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(Histogram::bucket_of(v), 63 * Histogram::kSubBuckets - 1)
        << "v = " << v;
  }
}

TEST(Histogram, BucketOfIsMonotone) {
  int prev = 0;
  for (double v = 0.5; v < 1e6; v *= 1.013) {
    const int b = Histogram::bucket_of(v);
    EXPECT_GE(b, prev) << "v=" << v;
    prev = b;
  }
}

// Regression: percentile(0) used to report empty bucket 0's midpoint
// (~1.03) regardless of the data; it must report the smallest observed
// value's bucket.
TEST(Histogram, PercentileZeroReturnsSmallestObserved) {
  Histogram h;
  h.add(500.0);
  h.add(900.0);
  EXPECT_NEAR(h.percentile(0), 500.0, 500.0 * 0.1);
  EXPECT_GT(h.percentile(0), 400.0);
  // p=100 still reports the exact maximum.
  EXPECT_DOUBLE_EQ(h.percentile(100), 900.0);
}

TEST(Histogram, MonotonePercentiles) {
  Histogram h;
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    h.add(std::exp(rng.next_double() * 10.0));
  }
  double prev = 0.0;
  for (double p = 0.0; p <= 100.0; p += 2.5) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

}  // namespace
}  // namespace lunule
