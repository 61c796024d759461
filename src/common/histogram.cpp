#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/assert.h"

namespace lunule {

int Histogram::bucket_of(double value) {
  if (value < 1.0) return 0;
  // For 2^e <= v < 2^(e+1) the sub-bucket is the top four bits of the
  // exact fraction (v - 2^e) / 2^e, i.e. of the mantissa.  Bits 63..48 of
  // the double hold (biased exponent << 4) | those bits, so subtracting
  // the bias leaves e * 16 + sub.  Reading the bits also avoids log2(),
  // whose correctly rounded log2(2^k - ulp) can round up to k and put the
  // value a whole band too high.  From 2^63 up (and inf) the value clamps
  // into the last sub-bucket of the 2^62 band.
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return std::min(63 * kSubBuckets - 1,
                  static_cast<int>((bits >> 48) - (1023U << 4)));
}

double Histogram::bucket_value(int bucket) {
  const int exponent = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  const double lower = std::exp2(exponent);
  // Bucket midpoint.
  return lower * (1.0 + (static_cast<double>(sub) + 0.5) / kSubBuckets);
}

void Histogram::add(double value, std::uint64_t count) {
  LUNULE_CHECK(value >= 0.0);
  buckets_[static_cast<std::size_t>(bucket_of(value))] += count;
  total_ += count;
  sum_ += value * static_cast<double>(count);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Histogram::percentile(double p) const {
  LUNULE_CHECK(p >= 0.0 && p <= 100.0);
  if (total_ == 0) return 0.0;
  // Rank of the value to report, at least 1 so p=0 returns the smallest
  // *observed* value's bucket rather than an empty bucket 0.
  const double target =
      std::max(1.0, p / 100.0 * static_cast<double>(total_));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (static_cast<double>(seen) >= target) {
      // Bucket 0 also holds sub-1.0 values; clamp by the observed maximum
      // so tiny distributions do not overreport.
      return std::min(bucket_value(b), max_);
    }
  }
  return max_;
}

}  // namespace lunule
