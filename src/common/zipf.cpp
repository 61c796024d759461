#include "common/zipf.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace lunule {

namespace {

/// Unnormalized weight of rank k; the CDF and the exponent solver sum
/// these in rank order, so both see the same partial sums.
double zipf_weight(std::uint64_t k, double exponent) {
  return 1.0 / std::pow(static_cast<double>(k + 1), exponent);
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double exponent)
    : exponent_(exponent), scatter_(n) {
  LUNULE_CHECK(exponent >= 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += zipf_weight(k, exponent);
    cdf_[k] = acc;
  }
  const double total = acc;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
  guide_.resize(n);
  std::uint32_t k = 0;
  for (std::uint64_t j = 0; j < n; ++j) {
    const double bound = static_cast<double>(j) / static_cast<double>(n);
    while (cdf_[k] < bound) ++k;  // stops at the last rank: cdf_ ends at 1
    guide_[j] = k;
  }
}

double ZipfSampler::pmf(std::uint64_t rank) const {
  LUNULE_CHECK(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

double ZipfSampler::top_mass(std::uint64_t k) const {
  if (k == 0) return 0.0;
  return cdf_[std::min<std::uint64_t>(k, cdf_.size()) - 1];
}

double zipf_exponent_for(double fraction, double mass, std::uint64_t n) {
  LUNULE_CHECK(fraction > 0.0 && fraction < 1.0);
  LUNULE_CHECK(mass > 0.0 && mass < 1.0);
  LUNULE_CHECK(n >= 10);
  // Bisection on the exponent; top_mass is monotonically increasing in s.
  double lo = 0.0;
  double hi = 3.0;
  const auto top_k = static_cast<std::uint64_t>(
      std::max(1.0, fraction * static_cast<double>(n)));
  // ZipfSampler(n, s).top_mass(top_k) without building the sampler: the
  // same partial sums in the same order, so the result is bit-identical.
  const auto top_mass = [n, top_k](double s) {
    if (top_k >= n) return 1.0;  // the sampler pins cdf_.back() to 1
    double acc = 0.0;
    double head = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
      acc += zipf_weight(k, s);
      if (k + 1 == top_k) head = acc;
    }
    return head / acc;
  };
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (top_mass(mid) < mass) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace lunule
