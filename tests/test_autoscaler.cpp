// Tests for the elastic MDS pool: cold standbys, activation hydration,
// the drain-then-retire scale-down protocol, the autoscaler's epoch
// policy (hysteresis, saturation veto, victim choice), and the
// scenario-level wiring (rank-seconds meter, conservation, disabled-path
// neutrality).
#include "mds/autoscaler.h"

#include <gtest/gtest.h>

#include <vector>

#include "fs/builder.h"
#include "fs/namespace_tree.h"
#include "mds/cluster.h"
#include "sim/scenario.h"
#include "sim/scenario_json.h"

namespace lunule {
namespace {

constexpr double kCapacity = 2500.0;

mds::ClusterParams elastic_params(std::size_t n_mds,
                                  std::size_t initial_active) {
  mds::ClusterParams cp;
  cp.n_mds = n_mds;
  cp.initial_active = initial_active;
  cp.mds_capacity_iops = kCapacity;
  return cp;
}

class ElasticClusterTest : public ::testing::Test {
 protected:
  ElasticClusterTest() {
    dirs = fs::build_private_dirs(tree, "w", 6, 100);
  }

  /// Runs `n` quiet ticks (migration streaming, no client traffic).
  static void run_ticks(mds::MdsCluster& cluster, int n) {
    for (int t = 0; t < n; ++t) {
      cluster.begin_tick(t);
      cluster.end_tick();
    }
  }

  fs::NamespaceTree tree;
  std::vector<DirId> dirs;
};

TEST_F(ElasticClusterTest, StandbysStartDownAndOwnNothing) {
  mds::MdsCluster cluster(tree, elastic_params(4, 2));
  EXPECT_EQ(cluster.alive_count(), 2u);
  EXPECT_TRUE(cluster.is_up(0));
  EXPECT_TRUE(cluster.is_up(1));
  EXPECT_FALSE(cluster.is_up(2));
  EXPECT_FALSE(cluster.is_up(3));
  EXPECT_TRUE(cluster.owned_subtrees(2).empty());
  EXPECT_EQ(cluster.elasticity().activations, 0u);
  // Cold standbys are a config choice, not an event: nothing is traced.
  EXPECT_EQ(cluster.trace().counters().value("autoscaler.scale_ups"), 0u);
}

TEST_F(ElasticClusterTest, ActivateJoinsStandbyOnce) {
  mds::MdsCluster cluster(tree, elastic_params(4, 2));
  cluster.activate(2);
  EXPECT_TRUE(cluster.is_up(2));
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_EQ(cluster.elasticity().activations, 1u);
  // Journaling is off: the newcomer serves at full capacity immediately.
  EXPECT_FALSE(cluster.server(2).replaying());
  cluster.activate(2);  // idempotent on an already-up rank
  EXPECT_EQ(cluster.elasticity().activations, 1u);
}

TEST_F(ElasticClusterTest, ActivateWithJournalPaysHydrationWindow) {
  mds::ClusterParams cp = elastic_params(4, 2);
  cp.journal.enabled = true;  // replay_base_seconds = 1.0 by default
  mds::MdsCluster cluster(tree, cp);
  cluster.activate(2);
  EXPECT_TRUE(cluster.server(2).replaying());
}

TEST_F(ElasticClusterTest, RetireRefusesWhileOwningOrMigrating) {
  mds::MdsCluster cluster(tree, elastic_params(3, 3));
  tree.set_auth(dirs[0], 1);
  cluster.begin_drain(1);
  EXPECT_TRUE(cluster.is_draining(1));
  EXPECT_FALSE(cluster.retire(1)) << "still authoritative for a subtree";
  ASSERT_TRUE(cluster.migration().submit({.dir = dirs[0]}, 0));
  EXPECT_FALSE(cluster.retire(1)) << "a migration still touches the rank";
  run_ticks(cluster, 5);  // 101 inodes at 1500/tick: one tick streams it
  EXPECT_EQ(tree.auth_of(dirs[0]), 0);
  EXPECT_TRUE(cluster.retire(1));
  EXPECT_FALSE(cluster.is_up(1));
  EXPECT_FALSE(cluster.is_draining(1));
  EXPECT_EQ(cluster.elasticity().retirements, 1u);
}

TEST_F(ElasticClusterTest, DrainingRankRefusesNewImports) {
  mds::MdsCluster cluster(tree, elastic_params(3, 3));
  cluster.begin_drain(2);
  EXPECT_FALSE(cluster.migration().submit({.dir = dirs[0]}, 2));
  EXPECT_TRUE(cluster.migration().submit({.dir = dirs[0]}, 1));
  cluster.cancel_drain(2);
  EXPECT_TRUE(cluster.migration().submit({.dir = dirs[1]}, 2));
}

// -- Autoscaler policy -------------------------------------------------------

mds::AutoscalerParams agile_params() {
  mds::AutoscalerParams p;
  p.enabled = true;
  p.min_ranks = 1;
  p.hysteresis_epochs = 1;
  p.cooldown_epochs = 0;
  return p;
}

TEST_F(ElasticClusterTest, ScaleUpWaitsOutTheHysteresisStreak) {
  mds::MdsCluster cluster(tree, elastic_params(4, 2));
  mds::AutoscalerParams p = agile_params();
  p.hysteresis_epochs = 2;
  mds::Autoscaler as(p);
  // Utilization 0.88 on two alive ranks: a scale-up signal every epoch.
  const std::vector<Load> hot = {2200.0, 2200.0, 0.0, 0.0};
  as.on_epoch(cluster, hot);
  EXPECT_EQ(cluster.alive_count(), 2u) << "one hot epoch must not trigger";
  as.on_epoch(cluster, hot);
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_TRUE(cluster.is_up(2)) << "lowest-numbered standby joins first";
  EXPECT_EQ(cluster.elasticity().activations, 1u);
}

TEST_F(ElasticClusterTest, SingleRankSaturationAloneTriggersScaleUp) {
  mds::MdsCluster cluster(tree, elastic_params(4, 2));
  mds::Autoscaler as(agile_params());
  // Aggregate utilization is only 0.48, but rank 0 is past the 0.95
  // saturation line — its queue grows no matter how idle rank 1 is.
  const std::vector<Load> skewed = {2400.0, 0.0, 0.0, 0.0};
  as.on_epoch(cluster, skewed);
  EXPECT_EQ(cluster.alive_count(), 3u);
}

TEST_F(ElasticClusterTest, SaturationVetoesScaleDown) {
  mds::MdsCluster cluster(tree, elastic_params(3, 3));
  mds::Autoscaler as(agile_params());
  // Aggregate utilization 0.33 (< 0.35) but rank 0 is saturated: the pool
  // is imbalanced, not oversized — shedding a rank is vetoed.  (The
  // saturation is itself an up-signal, but the pool is already full.)
  const std::vector<Load> skewed = {2400.0, 60.0, 40.0};
  as.on_epoch(cluster, skewed);
  as.on_epoch(cluster, skewed);
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_EQ(as.draining_rank(), kNoMds);
  EXPECT_EQ(cluster.elasticity().retirements, 0u);
}

TEST_F(ElasticClusterTest, ScaleDownPicksLightestVictimNeverRankZero) {
  mds::MdsCluster cluster(tree, elastic_params(3, 3));
  mds::Autoscaler as(agile_params());
  // Rank 0 is the lightest but anchors the pool; the victim is the
  // lightest of the rest — rank 1.  Nothing is owned by it, so the drain
  // completes (and retires) within the same epoch.
  const std::vector<Load> light = {0.0, 50.0, 60.0};
  as.on_epoch(cluster, light);
  EXPECT_TRUE(cluster.is_up(0));
  EXPECT_FALSE(cluster.is_up(1));
  EXPECT_TRUE(cluster.is_up(2));
  EXPECT_EQ(cluster.elasticity().retirements, 1u);
}

TEST_F(ElasticClusterTest, DrainMovesSubtreesThenRetires) {
  mds::MdsCluster cluster(tree, elastic_params(3, 3));
  tree.set_auth(dirs[0], 2);
  tree.set_auth(dirs[1], 2);
  mds::Autoscaler as(agile_params());
  const std::vector<Load> light = {50.0, 40.0, 30.0};
  as.on_epoch(cluster, light);  // begins the drain and submits exports
  EXPECT_EQ(as.draining_rank(), 2);
  EXPECT_TRUE(cluster.is_up(2)) << "a draining rank keeps serving";
  EXPECT_GE(as.stats().drain_exports_submitted, 2u);
  run_ticks(cluster, 5);  // stream the two 101-inode subtrees out
  as.on_epoch(cluster, light);  // drain sweep finds the rank empty
  EXPECT_FALSE(cluster.is_up(2));
  EXPECT_EQ(as.draining_rank(), kNoMds);
  EXPECT_EQ(cluster.elasticity().retirements, 1u);
  EXPECT_NE(tree.auth_of(dirs[0]), 2);
  EXPECT_NE(tree.auth_of(dirs[1]), 2);
}

TEST_F(ElasticClusterTest, DrainCancelledWhenLoadReturns) {
  mds::MdsCluster cluster(tree, elastic_params(3, 3));
  tree.set_auth(dirs[0], 2);
  mds::Autoscaler as(agile_params());
  const std::vector<Load> light = {50.0, 40.0, 30.0};
  as.on_epoch(cluster, light);
  ASSERT_EQ(as.draining_rank(), 2);
  const std::vector<Load> hot = {2300.0, 2300.0, 2300.0};
  as.on_epoch(cluster, hot);  // load came back: reverse the scale-down
  EXPECT_EQ(as.draining_rank(), kNoMds);
  EXPECT_TRUE(cluster.is_up(2));
  EXPECT_FALSE(cluster.is_draining(2));
  EXPECT_EQ(cluster.elasticity().retirements, 0u);
}

TEST_F(ElasticClusterTest, CrashMidDrainClearsTheDrain) {
  mds::MdsCluster cluster(tree, elastic_params(3, 3));
  tree.set_auth(dirs[0], 2);
  mds::Autoscaler as(agile_params());
  const std::vector<Load> light = {50.0, 40.0, 30.0};
  as.on_epoch(cluster, light);
  ASSERT_EQ(as.draining_rank(), 2);
  cluster.set_down(2);  // crash supersedes the planned scale-down
  EXPECT_FALSE(cluster.is_draining(2));
  as.on_epoch(cluster, light);
  EXPECT_EQ(as.draining_rank(), kNoMds);
  EXPECT_EQ(cluster.elasticity().retirements, 0u)
      << "a crash is a failover, not a completed scale-down";
}

TEST_F(ElasticClusterTest, PoolNeverShrinksBelowMinRanks) {
  mds::MdsCluster cluster(tree, elastic_params(3, 2));
  mds::AutoscalerParams p = agile_params();
  p.min_ranks = 2;
  mds::Autoscaler as(p);
  const std::vector<Load> idle = {0.0, 0.0, 0.0};
  for (int e = 0; e < 4; ++e) as.on_epoch(cluster, idle);
  EXPECT_EQ(cluster.alive_count(), 2u);
  EXPECT_EQ(cluster.elasticity().retirements, 0u);
}

// -- Scenario wiring ---------------------------------------------------------

sim::ScenarioConfig small_zipf() {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.n_mds = 4;
  cfg.n_clients = 12;
  cfg.scale = 0.05;
  cfg.max_ticks = 400;
  return cfg;
}

TEST(AutoscalerScenario, DisabledRunMetersTheFullPool) {
  sim::ScenarioConfig cfg = small_zipf();
  cfg.capture_trace = true;
  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_EQ(r.elasticity.activations, 0u);
  EXPECT_EQ(r.elasticity.retirements, 0u);
  EXPECT_EQ(r.drain_seconds, 0.0);
  EXPECT_EQ(r.rank_seconds,
            static_cast<std::uint64_t>(cfg.n_mds) *
                static_cast<std::uint64_t>(r.end_tick));
  // The disabled path never creates autoscaler counters or events.
  EXPECT_EQ(r.trace_json.find("autoscaler"), std::string::npos);
  EXPECT_EQ(r.trace_json.find("mds_activate"), std::string::npos);
}

TEST(AutoscalerScenario, ElasticRunScalesUpAndConservesWork) {
  sim::ScenarioConfig fixed = small_zipf();
  // 16 clients at 150 ops/s saturate a single 2500-IOPS rank, so the
  // elastic run (starting from one rank) must grow to keep up.
  fixed.n_clients = 16;
  const sim::ScenarioResult rf = sim::run_scenario(fixed);
  ASSERT_EQ(rf.clients_done, rf.n_clients);

  sim::ScenarioConfig elastic = small_zipf();
  elastic.n_clients = 16;
  elastic.autoscaler.enabled = true;
  elastic.autoscaler.initial_active = 1;
  elastic.autoscaler.min_ranks = 1;
  elastic.autoscaler.hysteresis_epochs = 1;
  elastic.autoscaler.cooldown_epochs = 0;
  const sim::ScenarioResult re = sim::run_scenario(elastic);
  ASSERT_EQ(re.clients_done, re.n_clients);

  // Elasticity must not lose completed operations: both runs finish every
  // client, so they serve the same total work.
  EXPECT_EQ(re.total_served, rf.total_served);
  EXPECT_LT(re.rank_seconds,
            static_cast<std::uint64_t>(elastic.n_mds) *
                static_cast<std::uint64_t>(re.end_tick));
  EXPECT_GT(re.elasticity.activations, 0u);
}

TEST(AutoscalerScenario, ElasticConfigRoundTripsThroughJson) {
  sim::ScenarioConfig cfg = small_zipf();
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.initial_active = 2;
  cfg.autoscaler.min_ranks = 2;
  cfg.autoscaler.max_ranks = 4;
  cfg.autoscaler.scale_up_utilization = 0.7;
  cfg.autoscaler.scale_down_utilization = 0.2;
  cfg.autoscaler.hysteresis_epochs = 3;
  cfg.autoscaler.cooldown_epochs = 5;
  const std::string json = sim::scenario_config_to_json(cfg);
  const sim::ScenarioConfig back = sim::scenario_config_from_json(json);
  EXPECT_TRUE(back.autoscaler.enabled);
  EXPECT_EQ(back.autoscaler.initial_active, 2u);
  EXPECT_EQ(back.autoscaler.min_ranks, 2u);
  EXPECT_EQ(back.autoscaler.max_ranks, 4u);
  EXPECT_DOUBLE_EQ(back.autoscaler.scale_up_utilization, 0.7);
  EXPECT_DOUBLE_EQ(back.autoscaler.scale_down_utilization, 0.2);
  EXPECT_EQ(back.autoscaler.hysteresis_epochs, 3);
  EXPECT_EQ(back.autoscaler.cooldown_epochs, 5);
}

}  // namespace
}  // namespace lunule
