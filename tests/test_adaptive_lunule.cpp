// Tests for the adaptive (validity-feedback) subtree-selection strategy.
#include "core/adaptive_lunule.h"

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "sim/scenario.h"

namespace lunule::core {
namespace {

AdaptiveParams params_for(const mds::ClusterParams& cp) {
  AdaptiveParams p;
  p.base = LunuleParams::for_cluster(cp);
  p.update_interval = 2;
  return p;
}

TEST(AdaptiveLunule, StartsAtTheBaseBudgetClamped) {
  mds::ClusterParams cp;
  AdaptiveParams p = params_for(cp);
  p.base.selector.max_subtrees = 1000;  // above the ceiling
  p.max_subtrees = 64;
  const AdaptiveLunuleBalancer balancer(p);
  EXPECT_EQ(balancer.current_max_subtrees(), 64u);
  EXPECT_EQ(balancer.name(), "Lunule-Adaptive");
}

TEST(AdaptiveLunule, DelegatesBalancingToTheInnerLunule) {
  fs::NamespaceTree tree;
  const auto dirs = fs::build_private_dirs(tree, "w", 10, 100);
  mds::ClusterParams cp;
  cp.n_mds = 5;
  cp.mds_capacity_iops = 1000.0;
  mds::MdsCluster cluster(tree, cp);
  for (int e = 0; e < 4; ++e) cluster.close_epoch();

  AdaptiveLunuleBalancer balancer(params_for(cp));
  // A harmful one-hot load must trigger migrations via the wrapped Lunule.
  // The window pokes bypass the recorder, so each directory is marked
  // touched: only the recorder's active set reaches candidate collection.
  for (const DirId d : dirs) {
    fs::FragStats& f = tree.frag(d, 0);
    tree.advance_frag_stats(f);  // keep the poked samples newest on read
    for (std::size_t e = 0; e < fs::kCuttingWindows; ++e) {
      f.windows.push({.visits = 900, .file_visits = 900, .recurrent = 900},
                     0.0);
    }
    cluster.recorder().touch(d);
  }
  balancer.on_epoch(cluster, std::vector<Load>{900, 10, 10, 10, 10});
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
}

TEST(AdaptiveLunule, EndToEndScenarioRuns) {
  // Full-stack smoke test at small scale via the custom-balancer hook.
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kCnn;
  cfg.n_clients = 20;
  cfg.scale = 0.05;
  cfg.max_ticks = 600;
  auto sim = sim::make_scenario(
      cfg, std::make_unique<AdaptiveLunuleBalancer>(
               params_for(sim::cluster_params_for(cfg))));
  sim->run();
  EXPECT_GT(sim->cluster().total_served(), 0u);
  EXPECT_GT(sim->cluster().migration().migrations_completed(), 0u);
}

TEST(AdaptiveLunule, LowValidityShrinksTheBudget) {
  // Drive the controller directly: commit migrations that never get
  // visited, then let the update interval elapse.
  fs::NamespaceTree tree;
  const auto dirs = fs::build_private_dirs(tree, "w", 12, 64);
  mds::ClusterParams cp;
  cp.n_mds = 3;
  cp.mds_capacity_iops = 1000.0;
  mds::MdsCluster cluster(tree, cp);

  AdaptiveParams p = params_for(cp);
  p.base.selector.max_subtrees = 64;
  AdaptiveLunuleBalancer balancer(p);
  const std::size_t before = balancer.current_max_subtrees();

  // Produce >= 4 invalid audited migrations through the real pipeline.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.migration().submit(
        {.dir = dirs[static_cast<std::size_t>(i)]}, 1));
  }
  for (int t = 0; t < 5; ++t) cluster.end_tick();  // commits (fast bw)
  // Age the audits past their observation window with idle epochs.
  for (int e = 0; e < 8; ++e) {
    cluster.close_epoch();
    balancer.on_epoch(cluster, std::vector<Load>{0, 0, 0});
  }
  EXPECT_LT(balancer.current_max_subtrees(), before);
}

}  // namespace
}  // namespace lunule::core
