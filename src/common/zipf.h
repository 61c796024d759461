// Zipf-distributed sampling over a bounded universe [0, n).
//
// Used by the Filebench-Zipfian and Web workloads.  The paper's Filebench
// configuration follows the 80/20 rule ("80% of requests touch 20% of
// files"), which corresponds to a Zipf exponent near 0.83 for large n; the
// exponent is a constructor parameter so tests can sweep it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"

namespace lunule {

/// `x mod n` without a divide (Barrett reduction).  The constant
/// m = floor((2^64 - 1) / n) is fixed at construction; a draw takes the
/// high word of x * m as the quotient estimate q and subtracts n once more
/// when x - q * n is still >= n.  Exact for every 64-bit x and every n in
/// [1, 2^32): with 2^64 - n * m in [1, n], the true quotient x / n exceeds
/// x * m / 2^64 by x * (2^64 - n * m) / (n * 2^64) <= x / 2^64 < 1, so q
/// falls short of floor(x / n) by 0 or 1 and x - q * n lies in [0, 2n).
class BarrettMod {
 public:
  explicit BarrettMod(std::uint64_t n) : n_(n) {
    LUNULE_CHECK(n > 0 && n <= std::numeric_limits<std::uint32_t>::max());
    m_ = std::numeric_limits<std::uint64_t>::max() / n;
  }

  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const {
    const auto q = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(x) * m_) >> 64);
    const std::uint64_t r = x - q * n_;
    return r >= n_ ? r - n_ : r;
  }

 private:
  std::uint64_t n_;
  std::uint64_t m_ = 0;
};

/// Precomputed-CDF Zipf sampler.  O(n) memory, O(1) expected per sample,
/// exact and deterministic.  Ranks are 0-based: rank 0 is the most popular.
///
/// A Chen–Asau guide table (guide_[j] = the smallest k with
/// cdf_[k] >= j/n) gives each draw a starting rank next to its answer, and
/// a short walk from there lands on exactly the index std::lower_bound
/// would return over the CDF (an alias table would draw a different rank
/// for the same uniform).
class ZipfSampler {
 public:
  /// n: universe size (> 0, < 2^32); exponent: Zipf skew `s` (>= 0;
  /// 0 == uniform).
  ZipfSampler(std::uint64_t n, double exponent);

  /// Draws one item id in [0, n), where smaller ids are more popular.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const {
    return rank_of(rng.next_double());
  }

  /// Draws one rank and scatters it over [0, n) as mix64(rank) mod n, so
  /// the popular items are not a contiguous id prefix (Filebench assigns
  /// files at random).  The same value as `mix64(sample(rng)) % n`.
  [[nodiscard]] std::uint64_t sample_scattered(Rng& rng) const {
    return scatter_(mix64(sample(rng)));
  }

  /// The smallest rank k with cdf(k) >= u, for u in [0, 1] (checked) —
  /// the inverse CDF `sample` applies to its uniform draw.
  [[nodiscard]] std::uint64_t rank_of(double u) const {
    LUNULE_CHECK(u >= 0.0 && u <= 1.0);  // the walk relies on it; no NaN
    const std::uint64_t n = cdf_.size();
    // u * n can round up to the next slot (or to n itself), so the start
    // may overshoot by a rank: step back while the previous rank already
    // covers u, then forward while this one does not.  Whatever the
    // start, this ends at the first k with cdf_[k] >= u.
    std::uint64_t k = guide_[std::min(
        static_cast<std::uint64_t>(u * static_cast<double>(n)), n - 1)];
    while (k > 0 && cdf_[k - 1] >= u) --k;
    while (cdf_[k] < u) ++k;
    return k;
  }

  [[nodiscard]] std::uint64_t universe() const { return cdf_.size(); }
  [[nodiscard]] double exponent() const { return exponent_; }

  /// Probability mass of rank k (mainly for tests).
  [[nodiscard]] double pmf(std::uint64_t rank) const;

  /// Fraction of probability mass covered by the top `k` ranks.
  [[nodiscard]] double top_mass(std::uint64_t k) const;

 private:
  std::vector<double> cdf_;           // cdf_[k] = P(rank <= k)
  std::vector<std::uint32_t> guide_;  // guide_[j] = min k: cdf_[k] >= j/n
  double exponent_ = 0.0;
  BarrettMod scatter_;                // mod n, for sample_scattered
};

/// Solves (approximately) for the Zipf exponent that yields
/// `mass` of requests on the top `fraction` of an n-item universe,
/// e.g. zipf_exponent_for(0.2, 0.8, 10000) for the 80/20 rule.
[[nodiscard]] double zipf_exponent_for(double fraction, double mass,
                                       std::uint64_t n);

}  // namespace lunule
