// Tests for the hotspot-absorbing proxy cache tier: promotion, lease
// grant/absorb/expiry edges, every invalidation source (mutation, split,
// migration commit, crash, drain), demotion on cool-down, the coherence
// audit, and the scenario-level conservation / quiescence properties.
#include "proxy/proxy_cache.h"

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "mds/cluster.h"
#include "obs/trace_recorder.h"
#include "sim/scenario.h"
#include "sim/scenario_json.h"

namespace lunule {
namespace {

class ProxyTierTest : public ::testing::Test {
 protected:
  ProxyTierTest() {
    dirs = fs::build_private_dirs(tree, "w", 4, 64);
    params.n_mds = 3;
    params.mds_capacity_iops = 200.0;
    params.epoch_ticks = 4;
    params.migration.hot_abort_iops = 1e9;  // never abort-for-heat here
  }

  proxy::ProxyParams tier_params() {
    proxy::ProxyParams p;
    p.enabled = true;
    p.lease_ticks = 4;
    p.promote_threshold_iops = 10.0;
    p.max_promoted = 2;
    return p;
  }

  /// Runs one tick serving `reads` lookups of dirs[0]/file 0.
  void tick(mds::MdsCluster& c, int reads) {
    c.begin_tick(now_);
    for (int i = 0; i < reads; ++i) c.try_serve(dirs[0], 0);
    c.end_tick();
    ++now_;
    if (now_ % params.epoch_ticks == 0) c.close_epoch();
  }

  /// One full hot epoch: enough traffic that close_epoch promotes dirs[0].
  void hot_epoch(mds::MdsCluster& c, int reads_per_tick = 30) {
    for (int t = 0; t < params.epoch_ticks; ++t) tick(c, reads_per_tick);
  }

  fs::NamespaceTree tree;
  mds::ClusterParams params;
  std::vector<DirId> dirs;
  Tick now_ = 0;
};

TEST_F(ProxyTierTest, HotDirectoryIsPromotedAndReadsAreAbsorbed) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);

  EXPECT_FALSE(tier.tracks(dirs[0]));
  hot_epoch(cluster);  // 30/tick = 30 IOPS > threshold 10
  ASSERT_TRUE(tier.tracks(dirs[0]));
  EXPECT_EQ(tier.totals().promotions, 1u);
  EXPECT_EQ(tier.promoted_dirs(), std::vector<DirId>{dirs[0]});

  // First read of the new epoch is MDS-served and grants the lease; the
  // rest of the tick is absorbed without touching any server tally.
  const std::uint64_t served_before = cluster.total_served();
  tick(cluster, 10);
  EXPECT_EQ(cluster.total_served(), served_before + 1);
  EXPECT_EQ(tier.totals().lease_grants, 1u);
  EXPECT_EQ(tier.totals().reads_absorbed, 9u);
  EXPECT_EQ(cluster.trace().counters().value("proxy.reads_absorbed"), 9u);
  EXPECT_EQ(cluster.trace().counters().value("proxy.lease_grants"), 1u);
  EXPECT_TRUE(tier.check_coherence(cluster).empty());
}

TEST_F(ProxyTierTest, UntrackedDirectoriesAreUntouched) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  // dirs[1] never crossed the threshold: its reads all hit the MDS.
  const std::uint64_t absorbed = tier.totals().reads_absorbed;
  cluster.begin_tick(now_);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster.try_serve(dirs[1], 0), mds::ServeResult::kServed);
  }
  cluster.end_tick();
  EXPECT_EQ(tier.totals().reads_absorbed, absorbed);
}

TEST_F(ProxyTierTest, LeaseExpiresExactlyOnTheBoundaryTick) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());  // lease_ticks = 4
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  ASSERT_TRUE(tier.tracks(dirs[0]));

  // Tick 4 (the first of epoch 1) grants; with lease_ticks = 4 the lease
  // spans exactly one epoch and dies on tick 8 — the next epoch boundary —
  // not one tick later.
  tick(cluster, 10);  // tick 4: grant + 9 absorbs
  const Tick grant = now_ - 1;
  EXPECT_TRUE(tier.leased(dirs[0], grant + 3));
  EXPECT_FALSE(tier.leased(dirs[0], grant + 4));
  tick(cluster, 10);  // tick 5
  tick(cluster, 10);  // tick 6
  tick(cluster, 10);  // tick 7; close_epoch runs, lease survives the close
  ASSERT_TRUE(tier.tracks(dirs[0]));
  EXPECT_EQ(tier.totals().lease_expiries, 0u);

  // Tick 8 == grant + lease_ticks: the absorb attempt falls through to the
  // MDS, which re-grants in the same serve.
  const std::uint64_t served_before = cluster.total_served();
  tick(cluster, 10);
  EXPECT_EQ(tier.totals().lease_expiries, 1u);
  EXPECT_EQ(tier.totals().lease_grants, 2u);
  EXPECT_EQ(cluster.total_served(), served_before + 1);
  EXPECT_TRUE(tier.check_coherence(cluster).empty());
}

TEST_F(ProxyTierTest, MutationRecallsTheLease) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  tick(cluster, 5);  // grant + absorbs
  ASSERT_TRUE(tier.leased(dirs[0], now_));

  cluster.begin_tick(now_);
  EXPECT_EQ(cluster.try_create(dirs[0]), mds::ServeResult::kServed);
  EXPECT_FALSE(tier.leased(dirs[0], now_));
  EXPECT_EQ(tier.totals().lease_recalls, 1u);
  // The directory stays promoted; the next read re-grants against the new
  // file count, so the stale-snapshot lease can never serve again.
  EXPECT_TRUE(tier.tracks(dirs[0]));
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), mds::ServeResult::kServed);
  EXPECT_TRUE(tier.leased(dirs[0], now_));
  cluster.end_tick();
  EXPECT_TRUE(tier.check_coherence(cluster).empty());
}

TEST_F(ProxyTierTest, SplitRecallsTheLease) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  tick(cluster, 5);
  ASSERT_TRUE(tier.leased(dirs[0], now_));
  tier.on_split(dirs[0], now_);
  EXPECT_FALSE(tier.leased(dirs[0], now_));
  EXPECT_EQ(tier.totals().lease_recalls, 1u);
}

TEST_F(ProxyTierTest, MigrationCommitRecallsWhileFreezeStillAbsorbs) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  tick(cluster, 5);
  ASSERT_TRUE(tier.leased(dirs[0], now_));
  ASSERT_EQ(tree.auth_of(dirs[0]), 0);

  // Queue a migration of the leased directory and run it to commit.  While
  // the transfer freezes the subtree, absorbs keep serving (the lease is
  // still valid — nothing moved yet); the commit itself recalls it.
  ASSERT_TRUE(cluster.migration().submit({.dir = dirs[0]}, 1));
  const std::uint64_t grants_before = tier.totals().lease_grants;
  for (int guard = 0; tree.auth_of(dirs[0]) == 0; ++guard) {
    ASSERT_LT(guard, 50) << "migration never committed";
    cluster.begin_tick(now_);
    EXPECT_EQ(cluster.try_serve(dirs[0], 0), mds::ServeResult::kServed);
    cluster.end_tick();
    ++now_;
  }
  EXPECT_EQ(tier.totals().lease_recalls, 1u);
  EXPECT_FALSE(tier.leased(dirs[0], now_));
  EXPECT_EQ(tier.totals().lease_grants, grants_before);

  // The next read re-grants from the new authority.
  cluster.begin_tick(now_);
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), mds::ServeResult::kServed);
  cluster.end_tick();
  EXPECT_TRUE(tier.leased(dirs[0], now_));
  EXPECT_TRUE(tier.check_coherence(cluster).empty());
}

TEST_F(ProxyTierTest, CrashOfTheGrantorRecallsAndFailoverRegrants) {
  tree.set_auth(dirs[0], 1);
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  tick(cluster, 5);
  ASSERT_TRUE(tier.leased(dirs[0], now_));

  cluster.set_down(1);
  EXPECT_FALSE(tier.leased(dirs[0], now_));
  EXPECT_EQ(tier.totals().lease_recalls, 1u);
  EXPECT_NE(tree.auth_of(dirs[0]), 1);

  cluster.begin_tick(now_);
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), mds::ServeResult::kServed);
  cluster.end_tick();
  EXPECT_TRUE(tier.leased(dirs[0], now_));
  EXPECT_TRUE(tier.check_coherence(cluster).empty());
}

TEST_F(ProxyTierTest, DrainRecallsAndRefusesGrantsUntilItEnds) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  tick(cluster, 5);
  ASSERT_TRUE(tier.leased(dirs[0], now_));
  ASSERT_EQ(tree.auth_of(dirs[0]), 0);

  cluster.begin_drain(0);
  EXPECT_FALSE(tier.leased(dirs[0], now_));
  EXPECT_EQ(tier.totals().lease_recalls, 1u);

  // Reads still work (the draining rank keeps serving) but mint no lease.
  const std::uint64_t grants = tier.totals().lease_grants;
  cluster.begin_tick(now_);
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), mds::ServeResult::kServed);
  EXPECT_EQ(tier.totals().lease_grants, grants);
  EXPECT_FALSE(tier.leased(dirs[0], now_));

  // Cancelling the drain restores grants.
  cluster.cancel_drain(0);
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), mds::ServeResult::kServed);
  cluster.end_tick();
  EXPECT_EQ(tier.totals().lease_grants, grants + 1);
  EXPECT_TRUE(tier.leased(dirs[0], now_));
  EXPECT_TRUE(tier.check_coherence(cluster).empty());
}

TEST_F(ProxyTierTest, CoolDirectoryIsDemotedAtEpochClose) {
  mds::MdsCluster cluster(tree, params);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  ASSERT_TRUE(tier.tracks(dirs[0]));

  // A whole epoch of silence: combined (MDS-served + absorbed) rate is 0,
  // far below the demotion threshold, so the close sweeps it out.
  for (int t = 0; t < params.epoch_ticks; ++t) tick(cluster, 0);
  EXPECT_FALSE(tier.tracks(dirs[0]));
  EXPECT_EQ(tier.totals().demotions, 1u);
  EXPECT_TRUE(tier.promoted_dirs().empty());
  EXPECT_TRUE(tier.check_coherence(cluster).empty());
}

TEST_F(ProxyTierTest, LeaseEventsLandInTheClusterTraceRing) {
  mds::MdsCluster cluster(tree, params);
  cluster.trace().set_enabled(true);
  proxy::ProxyCacheTier tier(tree, tier_params());
  cluster.set_cache_tier(&tier);
  hot_epoch(cluster);
  tick(cluster, 5);
  cluster.begin_tick(now_);
  cluster.try_create(dirs[0]);  // forces a recall event
  cluster.end_tick();

  bool saw_promote = false, saw_grant = false, saw_recall = false;
  const obs::TraceRing& ring = cluster.trace().ring(obs::Component::kCluster);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    switch (ring.at(i).kind) {
      case obs::EventKind::kProxyPromote: saw_promote = true; break;
      case obs::EventKind::kLeaseGrant: saw_grant = true; break;
      case obs::EventKind::kLeaseRecall: saw_recall = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_promote);
  EXPECT_TRUE(saw_grant);
  EXPECT_TRUE(saw_recall);
}

// -- Scenario-level properties --------------------------------------------

sim::ScenarioConfig flash_config(bool proxy_on) {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kFlashCrowd;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_mds = 3;
  cfg.n_clients = 8;
  cfg.scale = 0.02;
  cfg.max_ticks = 400;
  cfg.seed = 99;
  if (proxy_on) {
    cfg.proxy.enabled = true;
    cfg.proxy.lease_ticks = 20;
    cfg.proxy.promote_threshold_iops = cfg.mds_capacity_iops * 0.1;
    cfg.proxy.max_promoted = 4;
  }
  return cfg;
}

TEST(ProxyScenario, FlashCrowdAbsorbsAndConservesCompletedOps) {
  const sim::ScenarioResult off = sim::run_scenario(flash_config(false));
  const sim::ScenarioResult on = sim::run_scenario(flash_config(true));
  ASSERT_EQ(off.clients_done, off.n_clients);
  ASSERT_EQ(on.clients_done, on.n_clients);
  EXPECT_EQ(off.proxy.reads_absorbed, 0u);
  EXPECT_GT(on.proxy.reads_absorbed, 0u);
  EXPECT_GT(on.proxy.lease_grants, 0u);
  EXPECT_GT(on.proxy.promotions, 0u);
  EXPECT_EQ(on.completed_ops(), off.completed_ops());
}

TEST(ProxyScenario, QuiescentTierTracesByteIdenticallyToNoTier) {
  sim::ScenarioConfig off = flash_config(false);
  off.capture_trace = true;
  sim::ScenarioConfig on = off;
  on.proxy.enabled = true;
  on.proxy.promote_threshold_iops = 1e18;  // never promotes
  const sim::ScenarioResult a = sim::run_scenario(off);
  const sim::ScenarioResult b = sim::run_scenario(on);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ProxyScenario, ProxyParamsSurviveTheConfigJsonRoundTrip) {
  sim::ScenarioConfig cfg = flash_config(true);
  cfg.proxy.demote_threshold_iops = 3.5;
  const sim::ScenarioConfig back =
      sim::scenario_config_from_json(sim::scenario_config_to_json(cfg));
  EXPECT_EQ(back.proxy.enabled, true);
  EXPECT_EQ(back.proxy.lease_ticks, cfg.proxy.lease_ticks);
  EXPECT_DOUBLE_EQ(back.proxy.promote_threshold_iops,
                   cfg.proxy.promote_threshold_iops);
  EXPECT_DOUBLE_EQ(back.proxy.demote_threshold_iops, 3.5);
  EXPECT_EQ(back.proxy.max_promoted, cfg.proxy.max_promoted);
  EXPECT_EQ(sim::scenario_config_to_json(back),
            sim::scenario_config_to_json(cfg));
}

}  // namespace
}  // namespace lunule
