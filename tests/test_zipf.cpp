// Unit and property tests for the Zipf sampler (common/zipf.h).
#include "common/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace lunule {
namespace {

TEST(Zipf, PmfIsMonotonicallyDecreasing) {
  const ZipfSampler z(1000, 1.0);
  for (std::uint64_t k = 1; k < 1000; ++k) {
    ASSERT_GE(z.pmf(k - 1), z.pmf(k));
  }
}

TEST(Zipf, PmfSumsToOne) {
  const ZipfSampler z(500, 0.8);
  double total = 0.0;
  for (std::uint64_t k = 0; k < 500; ++k) total += z.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, ZeroExponentIsUniform) {
  const ZipfSampler z(100, 0.0);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_NEAR(z.pmf(k), 0.01, 1e-12);
  }
}

TEST(Zipf, SamplesStayInUniverse) {
  const ZipfSampler z(64, 1.2);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(z.sample(rng), 64u);
  }
}

TEST(Zipf, SamplingMatchesTopMass) {
  const ZipfSampler z(1000, 1.0);
  Rng rng(6);
  constexpr int kDraws = 200000;
  int top100 = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (z.sample(rng) < 100) ++top100;
  }
  EXPECT_NEAR(static_cast<double>(top100) / kDraws, z.top_mass(100), 0.01);
}

TEST(Zipf, EightyTwentyExponentSolve) {
  // The paper's Filebench config: 80% of requests touch 20% of 10000 files.
  const double s = zipf_exponent_for(0.2, 0.8, 10000);
  const ZipfSampler z(10000, s);
  EXPECT_NEAR(z.top_mass(2000), 0.8, 0.01);
  EXPECT_GT(s, 0.5);
  EXPECT_LT(s, 1.5);
  // Pinned bit for bit: the Filebench-Zipf workload draws with it, so a
  // change to the solver's sums shows up here before it moves a trace.
  EXPECT_EQ(s, 0x1.e63060b84dp-1);
}

TEST(Zipf, TopMassEdgeCases) {
  const ZipfSampler z(10, 1.0);
  EXPECT_DOUBLE_EQ(z.top_mass(0), 0.0);
  EXPECT_DOUBLE_EQ(z.top_mass(10), 1.0);
  EXPECT_DOUBLE_EQ(z.top_mass(100), 1.0);  // clamped
}

// The CDF the sampler is specified by, built independently of it, and the
// rank std::lower_bound picks from it: the guide-table walk must return
// exactly this rank for every uniform, or traces would change.
std::vector<double> reference_cdf(std::uint64_t n, double s) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = acc;
  }
  for (double& c : cdf) c /= acc;
  cdf.back() = 1.0;
  return cdf;
}

std::uint64_t reference_rank(const std::vector<double>& cdf, double u) {
  return static_cast<std::uint64_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(Zipf, GuideTableMatchesLowerBound) {
  for (const std::uint64_t n : {1, 2, 3, 10, 10000, 100000}) {
    for (const double s : {0.0, 0.83, 1.0, 2.5}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", s = " + std::to_string(s));
      const ZipfSampler z(n, s);
      const std::vector<double> cdf = reference_cdf(n, s);
      for (std::uint64_t k = 0; k < n; ++k) {
        ASSERT_EQ(z.top_mass(k + 1), cdf[k]) << "CDF differs at rank " << k;
      }
      Rng rng(0x5a1f + n);
      Rng ref_rng = rng;
      for (int i = 0; i < 100000; ++i) {
        const double u = ref_rng.next_double();
        ASSERT_EQ(z.sample(rng), reference_rank(cdf, u)) << "u = " << u;
      }
      // Exact probes where rounding could push the walk off by a rank.
      // Probing every cdf[k] is quadratic in the last guide slot, which
      // holds most ranks of a steep CDF; at n = 1e5 every 97th rank does.
      std::vector<double> probes = {0.0, 1.0 - 0x1p-53};  // next_double range
      const std::uint64_t stride = n <= 10000 ? 1 : 97;
      for (std::uint64_t k = 0; k < n; k += stride) {
        probes.push_back(cdf[k]);
        probes.push_back(std::nextafter(cdf[k], 0.0));
        probes.push_back(static_cast<double>(k) / static_cast<double>(n));
      }
      for (const double u : probes) {
        ASSERT_EQ(z.rank_of(u), reference_rank(cdf, u)) << "u = " << u;
      }
    }
  }
}

TEST(Zipf, RankOfRefusesUniformsOutsideUnitInterval) {
  const ZipfSampler z(10, 1.0);
  EXPECT_EQ(z.rank_of(1.0), 9u);
  EXPECT_DEATH((void)z.rank_of(std::nextafter(1.0, 2.0)), "LUNULE_CHECK");
  EXPECT_DEATH((void)z.rank_of(-0x1p-1074), "LUNULE_CHECK");
  EXPECT_DEATH((void)z.rank_of(std::nan("")), "LUNULE_CHECK");
}

// Pearson chi-squared goodness-of-fit of the sampler's empirical histogram
// against the analytic PMF.  With 100 bins (df = 99) the 0.001-quantile
// critical value is ~148.2; the seeds are fixed, so this is a deterministic
// regression gate, not a flaky statistical test.
class ZipfChiSquared : public ::testing::TestWithParam<double> {};

TEST_P(ZipfChiSquared, EmpiricalHistogramMatchesAnalyticPmf) {
  constexpr std::uint64_t kBins = 100;
  constexpr int kDraws = 100000;
  constexpr double kCritical999 = 148.23;  // chi2inv(0.999, 99)
  const ZipfSampler z(kBins, GetParam());
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    std::vector<int> observed(kBins, 0);
    for (int i = 0; i < kDraws; ++i) ++observed[z.sample(rng)];
    double chi2 = 0.0;
    for (std::uint64_t k = 0; k < kBins; ++k) {
      const double expected = z.pmf(k) * kDraws;
      ASSERT_GT(expected, 5.0) << "bin " << k << " too thin for chi-squared";
      const double d = observed[k] - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, kCritical999)
        << "exponent " << GetParam() << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfChiSquared,
                         ::testing::Values(0.0, 0.8, 1.2));

// Property sweep: for any exponent, higher exponent concentrates more mass
// on the head.
class ZipfExponentSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentSweep, HeadMassGrowsWithExponent) {
  const double s = GetParam();
  const ZipfSampler lo(1000, s);
  const ZipfSampler hi(1000, s + 0.25);
  EXPECT_LT(lo.top_mass(50), hi.top_mass(50) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0, 1.5,
                                           2.0));

}  // namespace
}  // namespace lunule
