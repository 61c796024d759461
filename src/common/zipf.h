// Zipf-distributed sampling over a bounded universe [0, n).
//
// Used by the Filebench-Zipfian and Web workloads.  The paper's Filebench
// configuration follows the 80/20 rule ("80% of requests touch 20% of
// files"), which corresponds to a Zipf exponent near 0.83 for large n; the
// exponent is a constructor parameter so tests can sweep it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace lunule {

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

  /// The smallest rank k with cdf(k) >= u, for u in [0, 1] (checked) —
  /// the inverse CDF `sample` applies to its uniform draw.
  [[nodiscard]] std::uint64_t rank_of(double u) const;

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
};

/// Solves (approximately) for the Zipf exponent that yields
/// `mass` of requests on the top `fraction` of an n-item universe,
/// e.g. zipf_exponent_for(0.2, 0.8, 10000) for the 80/20 rule.
[[nodiscard]] double zipf_exponent_for(double fraction, double mass,
                                       std::uint64_t n);

}  // namespace lunule
