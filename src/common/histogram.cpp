#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace lunule {

double Histogram::bucket_value(int bucket) {
  const int exponent = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  const double lower = std::exp2(exponent);
  // Bucket midpoint.
  return lower * (1.0 + (static_cast<double>(sub) + 0.5) / kSubBuckets);
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
