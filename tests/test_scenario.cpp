// End-to-end scenario factory tests: every workload x balancer cell builds
// and runs; workload shapes match Table 1; bookkeeping is conserved.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include "sim/json_export.h"

namespace lunule::sim {
namespace {

ScenarioConfig small(WorkloadKind w, BalancerKind b) {
  ScenarioConfig cfg;
  cfg.workload = w;
  cfg.balancer = b;
  cfg.n_clients = 12;
  cfg.scale = 0.03;
  cfg.max_ticks = 240;
  cfg.client_rate = 60.0;
  cfg.mds_capacity_iops = 300.0;
  return cfg;
}

// Parameterized sweep over the full evaluation matrix (paper Figs. 6-7).
using Cell = std::tuple<WorkloadKind, BalancerKind>;
class MatrixSweep : public ::testing::TestWithParam<Cell> {};

TEST_P(MatrixSweep, BuildsRunsAndConserves) {
  const auto [w, b] = GetParam();
  const ScenarioResult r = run_scenario(small(w, b));
  EXPECT_GT(r.total_served, 0u);
  // Per-MDS totals sum to the cluster total.
  std::uint64_t sum = 0;
  for (const std::uint64_t s : r.total_served_per_mds) sum += s;
  EXPECT_EQ(sum, r.total_served);
  // Every epoch row covers the whole (fixed) cluster.
  ASSERT_GT(r.metrics.epochs(), 0u);
  for (const EpochSample& row : r.metrics.rows()) {
    EXPECT_EQ(row.loads.size(), r.total_served_per_mds.size());
    // The IF metric stays in range for every epoch.
    EXPECT_GE(row.imbalance_factor, 0.0);
    EXPECT_LE(row.imbalance_factor, 1.0 + 1e-9);
  }
  // Migrated-inode series is monotone (cumulative).
  const std::vector<double> mig = r.metrics.migrated_inodes();
  for (std::size_t i = 1; i < mig.size(); ++i) {
    EXPECT_GE(mig[i], mig[i - 1]);
  }
}

// A kind-built balancer handed to make_scenario and read
// through result_of reports exactly what run_scenario reports, name and
// trace included.
TEST(Scenario, ResultOfMatchesRunScenarioForEveryKind) {
  for (const BalancerKind kind :
       {BalancerKind::kVanilla, BalancerKind::kGreedySpill,
        BalancerKind::kLunule, BalancerKind::kLunuleLight,
        BalancerKind::kDirHash, BalancerKind::kLunuleHash,
        BalancerKind::kNone}) {
    ScenarioConfig cfg = small(WorkloadKind::kZipf, kind);
    cfg.capture_trace = true;
    auto sim =
        make_scenario(cfg, make_balancer(kind, cluster_params_for(cfg)));
    sim->run();
    const ScenarioResult custom = result_of(*sim);
    const ScenarioResult built_in = run_scenario(cfg);
    EXPECT_EQ(custom.balancer, balancer_name(kind));
    EXPECT_EQ(to_json(custom), to_json(built_in)) << balancer_name(kind);
    EXPECT_EQ(custom.trace_json, built_in.trace_json)
        << balancer_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EvaluationMatrix, MatrixSweep,
    ::testing::Combine(
        ::testing::Values(WorkloadKind::kCnn, WorkloadKind::kNlp,
                          WorkloadKind::kWeb, WorkloadKind::kZipf,
                          WorkloadKind::kMd, WorkloadKind::kMixed),
        ::testing::Values(BalancerKind::kVanilla, BalancerKind::kGreedySpill,
                          BalancerKind::kLunule, BalancerKind::kLunuleLight,
                          BalancerKind::kDirHash,
                          BalancerKind::kLunuleHash)),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name =
          std::string(workload_name(std::get<0>(info.param))) + "_" +
          std::string(balancer_name(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ScenarioFactory, NamesRoundTrip) {
  EXPECT_EQ(workload_name(WorkloadKind::kCnn), "CNN");
  EXPECT_EQ(workload_name(WorkloadKind::kMixed), "Mixed");
  EXPECT_EQ(balancer_name(BalancerKind::kLunuleLight), "Lunule-Light");
  EXPECT_EQ(balancer_name(BalancerKind::kDirHash), "Dir-Hash");
}

TEST(ScenarioFactory, DataPathChangesCompletionTimes) {
  ScenarioConfig cfg = small(WorkloadKind::kZipf, BalancerKind::kLunule);
  const ScenarioResult meta_only = run_scenario(cfg);
  cfg.data_enabled = true;
  cfg.data_capacity = 100.0;  // starved data path
  const ScenarioResult with_data = run_scenario(cfg);
  // A starved data path must slow the end-to-end run down.
  EXPECT_GT(with_data.end_tick, meta_only.end_tick);
}

TEST(ScenarioFactory, MixedWorkloadBuildsFourNamespaces) {
  ScenarioConfig cfg = small(WorkloadKind::kMixed, BalancerKind::kNone);
  auto sim = make_scenario(cfg);
  const auto& root_children =
      sim->tree().dir(sim->tree().root()).children();
  EXPECT_EQ(root_children.size(), 4u);  // cnn, nlp, web, zipf
  EXPECT_EQ(sim->clients().size(), 12u);
}

TEST(ScenarioFactory, ScaleShrinksDataset) {
  ScenarioConfig big = small(WorkloadKind::kCnn, BalancerKind::kNone);
  big.scale = 0.2;
  ScenarioConfig tiny = small(WorkloadKind::kCnn, BalancerKind::kNone);
  tiny.scale = 0.05;
  EXPECT_GT(make_scenario(big)->tree().total_inodes(),
            make_scenario(tiny)->tree().total_inodes());
}

TEST(ScenarioFactory, MetaRatiosMatchTableOne) {
  // Run each workload without contention and compare the served meta/data
  // op ratio against Table 1 of the paper.
  struct Expect {
    WorkloadKind kind;
    double ratio;
  };
  for (const Expect e : {Expect{WorkloadKind::kCnn, 0.781},
                         Expect{WorkloadKind::kNlp, 0.928},
                         Expect{WorkloadKind::kWeb, 0.572},
                         Expect{WorkloadKind::kZipf, 0.5},
                         Expect{WorkloadKind::kMd, 1.0}}) {
    ScenarioConfig cfg = small(e.kind, BalancerKind::kNone);
    cfg.data_enabled = true;
    cfg.data_capacity = 1e9;  // data path never the bottleneck
    cfg.n_clients = 4;
    cfg.max_ticks = 400;
    auto sim = make_scenario(cfg);
    sim->run();
    std::uint64_t meta = 0;
    std::uint64_t data = 0;
    for (const auto& c : sim->clients()) {
      meta += c->meta_ops_completed();
      data += c->data_ops_completed();
    }
    ASSERT_GT(meta, 0u);
    const double ratio =
        static_cast<double>(meta) / static_cast<double>(meta + data);
    EXPECT_NEAR(ratio, e.ratio, 0.04)
        << "workload " << workload_name(e.kind);
  }
}

}  // namespace
}  // namespace lunule::sim
