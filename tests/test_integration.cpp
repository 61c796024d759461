// Integration tests asserting the paper's qualitative findings at small
// scale: these are the shape checks the benches verify at full scale.
#include <gtest/gtest.h>

#include "sim/scenario.h"

namespace lunule::sim {
namespace {

ScenarioConfig base(WorkloadKind w, BalancerKind b) {
  ScenarioConfig cfg;
  cfg.workload = w;
  cfg.balancer = b;
  cfg.n_clients = 25;
  cfg.scale = 0.08;
  cfg.max_ticks = 900;
  cfg.client_rate = 100.0;
  cfg.mds_capacity_iops = 600.0;
  return cfg;
}

TEST(Integration, LunuleBeatsVanillaOnScanWorkload) {
  // The CNN headline (Figs. 6a/7a): heat-based selection migrates dead
  // subtrees, the mIndex selector migrates future ones.
  const ScenarioResult vanilla =
      run_scenario(base(WorkloadKind::kCnn, BalancerKind::kVanilla));
  const ScenarioResult lunule =
      run_scenario(base(WorkloadKind::kCnn, BalancerKind::kLunule));
  EXPECT_LT(lunule.metrics.mean_if(), vanilla.metrics.mean_if());
  EXPECT_LE(lunule.end_tick, vanilla.end_tick);
}

TEST(Integration, GreedySpillIsTheWorstBalancerOnScans) {
  const ScenarioResult greedy =
      run_scenario(base(WorkloadKind::kNlp, BalancerKind::kGreedySpill));
  const ScenarioResult lunule =
      run_scenario(base(WorkloadKind::kNlp, BalancerKind::kLunule));
  EXPECT_GT(greedy.metrics.mean_if(), lunule.metrics.mean_if());
}

TEST(Integration, DirHashHasEvenInodesButMoreForwards) {
  ScenarioConfig cfg = base(WorkloadKind::kWeb, BalancerKind::kDirHash);
  const ScenarioResult hash = run_scenario(cfg);
  cfg.balancer = BalancerKind::kLunule;
  const ScenarioResult lunule = run_scenario(cfg);
  // Section 4.6: Dir-Hash destroys locality => far more forwards.
  EXPECT_GT(hash.total_forwards, lunule.total_forwards);
}

TEST(Integration, UrgencySuppressesRebalanceUnderLightLoad) {
  // Fig. 12b phase 1: few clients, all MDSs lightly loaded — Lunule must
  // not migrate even though the relative skew is total.
  ScenarioConfig cfg = base(WorkloadKind::kZipf, BalancerKind::kLunule);
  cfg.n_clients = 3;
  cfg.client_rate = 40.0;  // max load ~120 IOPS << capacity 600
  cfg.max_ticks = 400;
  cfg.stop_when_done = false;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.migrated_total, 0u);
}

TEST(Integration, SameLoadAtHigherIntensityDoesMigrate) {
  // Control for the urgency test: crank the client rate and migration
  // must kick in.
  ScenarioConfig cfg = base(WorkloadKind::kZipf, BalancerKind::kLunule);
  cfg.n_clients = 25;
  cfg.client_rate = 120.0;
  cfg.max_ticks = 400;
  cfg.stop_when_done = false;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_GT(r.migrated_total, 0u);
}

TEST(Integration, ClusterExpansionGetsAbsorbed) {
  // Fig. 12a: an MDS added mid-run starts taking load.
  ScenarioConfig cfg = base(WorkloadKind::kZipf, BalancerKind::kLunule);
  cfg.n_mds = 2;
  cfg.stop_when_done = false;
  cfg.max_ticks = 600;
  // Keep the steady per-directory rate below the freeze-abort threshold
  // (capacity/8) so subtrees remain exportable after the expansion.
  cfg.client_rate = 60.0;
  auto sim = make_scenario(cfg);
  sim->schedule(200, [](Simulation& s) { s.cluster().add_server(); });
  sim->run();
  // The newcomer absorbed migrated subtrees and served a meaningful
  // number of requests before the jobs drained.
  const MdsId added = 2;
  EXPECT_GT(sim->cluster().server(added).total_served(), 1000u);
}

TEST(Integration, MoreMdsMoreThroughputOnMd) {
  // Fig. 13a at miniature scale: MD throughput scales with cluster size.
  ScenarioConfig cfg = base(WorkloadKind::kMd, BalancerKind::kLunule);
  cfg.stop_when_done = false;
  cfg.max_ticks = 500;
  cfg.n_mds = 1;
  const double t1 = run_scenario(cfg).metrics.peak_aggregate_iops();
  cfg.n_mds = 4;
  const double t4 = run_scenario(cfg).metrics.peak_aggregate_iops();
  EXPECT_GT(t4, 2.0 * t1);
}

TEST(Integration, BalancedRunsServeMoreThanImbalancedOnes) {
  // The throughput/IF negative correlation of Figs. 6-7: compare a
  // balancer-less run against Lunule on the same workload and window.
  ScenarioConfig cfg = base(WorkloadKind::kCnn, BalancerKind::kNone);
  cfg.stop_when_done = false;
  cfg.max_ticks = 500;
  const ScenarioResult none = run_scenario(cfg);
  cfg.balancer = BalancerKind::kLunule;
  const ScenarioResult lunule = run_scenario(cfg);
  EXPECT_GT(lunule.total_served, none.total_served);
  EXPECT_LT(lunule.metrics.mean_if(), none.metrics.mean_if());
}

}  // namespace
}  // namespace lunule::sim
