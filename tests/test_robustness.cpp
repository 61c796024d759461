// Seed-robustness tests: the headline orderings of the reproduction must
// hold across random seeds, not just at the benches' fixed seed.  Scales
// are kept small so the whole sweep stays fast.
#include <gtest/gtest.h>

#include "sim/parallel_runner.h"
#include "sim/scenario.h"

namespace lunule::sim {
namespace {

ScenarioConfig cfg_for(WorkloadKind w, BalancerKind b, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.workload = w;
  cfg.balancer = b;
  cfg.n_clients = 40;
  cfg.scale = 0.08;
  cfg.max_ticks = 700;
  cfg.seed = seed;
  return cfg;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, LunuleBeatsVanillaOnNlpBalance) {
  // The strongest effect in the paper (Fig. 6b): heat-based selection
  // cannot split the scan of 14 huge folders; Lunule's dirfrag splitting
  // can.  Must hold for every seed.
  const std::uint64_t seed = GetParam();
  const auto results = run_scenarios({
      cfg_for(WorkloadKind::kNlp, BalancerKind::kVanilla, seed),
      cfg_for(WorkloadKind::kNlp, BalancerKind::kLunule, seed),
  });
  EXPECT_LT(results[1].metrics.mean_if(), results[0].metrics.mean_if())
      << "seed " << seed;
  EXPECT_GT(results[1].total_served, results[0].total_served)
      << "seed " << seed;
}

TEST_P(SeedSweep, GreedySpillNeverBeatsLunuleOnZipf) {
  const std::uint64_t seed = GetParam();
  const auto results = run_scenarios({
      cfg_for(WorkloadKind::kZipf, BalancerKind::kGreedySpill, seed),
      cfg_for(WorkloadKind::kZipf, BalancerKind::kLunule, seed),
  });
  EXPECT_GT(results[0].metrics.mean_if(), results[1].metrics.mean_if())
      << "seed " << seed;
}

TEST_P(SeedSweep, UrgencyGateIsSeedIndependent) {
  // Benign imbalance (light load) must never trigger migration, whatever
  // the seed scatters.
  ScenarioConfig cfg =
      cfg_for(WorkloadKind::kZipf, BalancerKind::kLunule, GetParam());
  cfg.n_clients = 4;
  cfg.client_rate = 40.0;
  cfg.stop_when_done = false;
  cfg.max_ticks = 400;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.migrated_total, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 17, 4242, 98765, 31337));

}  // namespace
}  // namespace lunule::sim
