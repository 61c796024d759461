// Log-bucketed histogram for latency-style distributions.
//
// Values are non-negative and bucketed with ~8% relative resolution
// (16 sub-buckets per power of two), which keeps percentile queries
// accurate to a few percent while the memory footprint stays constant —
// the standard HDR-histogram trade-off, sized for the simulator's
// tick-granularity latencies.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/assert.h"

namespace lunule {

class Histogram {
 public:
  /// Adds `count` observations of `value`.  For integer-valued `value`
  /// (and sums below 2^53) one add(v, k) leaves every field bit-equal to
  /// k calls of add(v), in any interleaving with other such adds.
  void add(double value, std::uint64_t count = 1) {
    LUNULE_CHECK(value >= 0.0);
    buckets_[static_cast<std::size_t>(bucket_of(value))] += count;
    total_ += count;
    sum_ += value * static_cast<double>(count);
    max_ = std::max(max_, value);
  }

  /// Merges another histogram into this one.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t total_count() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] double max_value() const { return max_; }
  [[nodiscard]] double mean() const {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }

  /// Linear-interpolated percentile, p in [0, 100].  Returns the bucket's
  /// representative value (accurate to the bucket resolution).
  [[nodiscard]] double percentile(double p) const;

  static constexpr int kSubBuckets = 16;   // per power of two
  static constexpr int kBuckets = 64 * kSubBuckets;

  /// Bucket index for `value` (exposed for boundary tests).
  [[nodiscard]] static int bucket_of(double value) {
    if (value < 1.0) return 0;
    // For 2^e <= v < 2^(e+1) the sub-bucket is the top four bits of the
    // exact fraction (v - 2^e) / 2^e, i.e. of the mantissa.  Bits 63..48
    // of the double hold (biased exponent << 4) | those bits, so
    // subtracting the bias leaves e * 16 + sub.  Reading the bits also
    // avoids log2(), whose correctly rounded log2(2^k - ulp) can round up
    // to k and put the value a whole band too high.  From 2^63 up (and
    // inf) the value clamps into the last sub-bucket of the 2^62 band.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return std::min(63 * kSubBuckets - 1,
                    static_cast<int>((bits >> 48) - (1023U << 4)));
  }
  /// Observations in `bucket` (tests compare whole distributions).
  [[nodiscard]] std::uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<std::size_t>(bucket)];
  }
  /// Representative (midpoint) value of `bucket`.
  [[nodiscard]] static double bucket_value(int bucket);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lunule
