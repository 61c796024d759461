// Tests for the parallel scenario runner: ordering, determinism and
// equivalence with sequential execution.
#include "sim/parallel_runner.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace lunule::sim {
namespace {

ScenarioConfig tiny(WorkloadKind w, BalancerKind b, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.workload = w;
  cfg.balancer = b;
  cfg.n_clients = 8;
  cfg.scale = 0.03;
  cfg.max_ticks = 200;
  cfg.client_rate = 60.0;
  cfg.mds_capacity_iops = 300.0;
  cfg.seed = seed;
  return cfg;
}

TEST(ParallelRunner, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(run_scenarios({}).empty());
}

TEST(ParallelRunner, PreservesInputOrder) {
  const std::vector<ScenarioConfig> configs{
      tiny(WorkloadKind::kZipf, BalancerKind::kVanilla, 1),
      tiny(WorkloadKind::kCnn, BalancerKind::kLunule, 2),
      tiny(WorkloadKind::kMd, BalancerKind::kGreedySpill, 3),
  };
  const auto results = run_scenarios(configs, /*max_threads=*/2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].workload, "Zipf");
  EXPECT_EQ(results[0].balancer, "Vanilla");
  EXPECT_EQ(results[1].workload, "CNN");
  EXPECT_EQ(results[1].balancer, "Lunule");
  EXPECT_EQ(results[2].workload, "MD");
  EXPECT_EQ(results[2].balancer, "GreedySpill");
}

TEST(ParallelRunner, MatchesSequentialExecution) {
  std::vector<ScenarioConfig> configs;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    configs.push_back(tiny(WorkloadKind::kZipf, BalancerKind::kLunule, s));
  }
  const auto parallel = run_scenarios(configs, 4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ScenarioResult sequential = run_scenario(configs[i]);
    EXPECT_EQ(parallel[i].total_served, sequential.total_served) << i;
    EXPECT_EQ(parallel[i].migrated_total, sequential.migrated_total) << i;
    EXPECT_DOUBLE_EQ(parallel[i].metrics.mean_if(),
                     sequential.metrics.mean_if())
        << i;
  }
}

TEST(ParallelRunner, MoreThreadsThanWorkIsFine) {
  const std::vector<ScenarioConfig> configs{
      tiny(WorkloadKind::kWeb, BalancerKind::kDirHash, 9)};
  const auto results = run_scenarios(configs, 16);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].total_served, 0u);
}

TEST(ParallelRunner, WorkerExceptionPropagatesInsteadOfTerminating) {
  // A scenario whose fault plan names a rank outside the cluster throws
  // std::invalid_argument from construction.  Before the runner captured
  // worker exceptions, this crossed the thread boundary and called
  // std::terminate, killing the whole process.
  std::vector<ScenarioConfig> configs{
      tiny(WorkloadKind::kZipf, BalancerKind::kVanilla, 1),
      tiny(WorkloadKind::kZipf, BalancerKind::kVanilla, 2),
  };
  configs[1].faults.crash(/*m=*/99, /*at=*/10, /*down_for=*/5);
  EXPECT_THROW(run_scenarios(configs, 2), std::invalid_argument);
}

TEST(ParallelRunner, FirstFailureByConfigOrderWins) {
  std::vector<ScenarioConfig> configs;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    configs.push_back(tiny(WorkloadKind::kZipf, BalancerKind::kVanilla, s));
  }
  configs[1].faults.crash(50, 10, 5);   // invalid rank
  configs[3].faults.slow(0, 10, 5, 7.0);  // invalid factor
  try {
    static_cast<void>(run_scenarios(configs, 4));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The earliest failing config's message, regardless of which worker
    // hit its exception first.
    EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos);
  }
}

}  // namespace
}  // namespace lunule::sim
