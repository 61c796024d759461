#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.h"

namespace lunule {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double sample_variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double sample_stddev(std::span<const double> xs) {
  return std::sqrt(sample_variance(xs));
}

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return sample_stddev(xs) / m;
}

double max_coefficient_of_variation(std::size_t n) {
  return std::sqrt(static_cast<double>(n));
}

double min_value(std::span<const double> xs) {
  LUNULE_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  LUNULE_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double sum(std::span<const double> xs) {
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc;
}

std::vector<double> resample(std::span<const double> xs,
                             std::size_t buckets) {
  LUNULE_CHECK(buckets > 0);
  std::vector<double> out;
  out.reserve(buckets);
  if (xs.empty()) return out;
  const double stride =
      static_cast<double>(xs.size()) / static_cast<double>(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto lo = static_cast<std::size_t>(static_cast<double>(b) * stride);
    auto hi = static_cast<std::size_t>(static_cast<double>(b + 1) * stride);
    hi = std::max(hi, lo + 1);
    hi = std::min(hi, xs.size());
    if (lo >= xs.size()) break;
    out.push_back(mean(xs.subspan(lo, hi - lo)));
  }
  return out;
}

double percentile(std::span<const double> xs, double p) {
  LUNULE_CHECK(!xs.empty());
  LUNULE_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

LinearFit fit_linear(std::span<const double> ys) {
  const std::size_t n = ys.size();
  if (n == 0) return {};
  if (n == 1) return {.slope = 0.0, .intercept = ys[0]};
  // x = 0..n-1, so mean(x) and sum of squared deviations have closed forms.
  const double mx = static_cast<double>(n - 1) / 2.0;
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mx;
    sxy += dx * (ys[i] - my);
    sxx += dx * dx;
  }
  const double slope = sxx == 0.0 ? 0.0 : sxy / sxx;
  return {.slope = slope, .intercept = my - slope * mx};
}

double r_squared(std::span<const double> ys, std::span<const double> ps) {
  LUNULE_CHECK(ys.size() == ps.size());
  if (ys.empty()) return 1.0;
  const double my = mean(ys);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    ss_res += (ys[i] - ps[i]) * (ys[i] - ps[i]);
    ss_tot += (ys[i] - my) * (ys[i] - my);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace lunule
