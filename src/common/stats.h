// Descriptive statistics used throughout the balancers and the metrics
// pipeline: mean, corrected sample standard deviation, Coefficient of
// Variation (the building block of the paper's Imbalance Factor model,
// Eq. 1), percentiles, and simple linear regression (used by Algorithm 1
// to forecast an importer's future load, `fld`).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lunule {

[[nodiscard]] double mean(std::span<const double> xs);

/// Corrected (n-1) sample variance; 0 for fewer than two samples.
[[nodiscard]] double sample_variance(std::span<const double> xs);

[[nodiscard]] double sample_stddev(std::span<const double> xs);

/// Coefficient of Variation: sigma(xs) / mean(xs), per Eq. 1 of the paper.
/// Returns 0 when the mean is 0 (an all-idle cluster is perfectly balanced).
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs);

/// The supremum of CoV over non-negative n-vectors is sqrt(n): the
/// one-hot load vector.  Used to normalize CoV into [0, 1] (Eq. 3).
[[nodiscard]] double max_coefficient_of_variation(std::size_t n);

[[nodiscard]] double min_value(std::span<const double> xs);
[[nodiscard]] double max_value(std::span<const double> xs);
[[nodiscard]] double sum(std::span<const double> xs);

/// Downsamples a series into `buckets` bucket means (empty for an empty
/// series); report tables print long per-epoch series this way.
[[nodiscard]] std::vector<double> resample(std::span<const double> xs,
                                           std::size_t buckets);

/// Linear-interpolated percentile of an *unsorted* input, p in [0, 100].
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Ordinary-least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;

  [[nodiscard]] double at(double x) const { return slope * x + intercept; }
};

/// Fits y[i] against x = 0, 1, ..., n-1.  With fewer than two points the
/// fit is a constant (slope 0).  Used for the `fld` next-epoch forecast.
[[nodiscard]] LinearFit fit_linear(std::span<const double> ys);

/// Coefficient of determination (R^2) of observed ys against predicted ps.
[[nodiscard]] double r_squared(std::span<const double> ys,
                               std::span<const double> ps);

}  // namespace lunule
