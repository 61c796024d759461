// Tests for the fault-injection subsystem: plan validation, crash
// fail-over, migration aborts with retry/backoff, slow nodes, and the
// determinism of faulty runs end to end.
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "mds/cluster.h"
#include "sim/scenario.h"

namespace lunule {
namespace {

// -- FaultPlan ------------------------------------------------------------

TEST(FaultPlan, ValidatesCleanPlans) {
  faults::FaultPlan plan;
  plan.crash(1, 50, 100).slow(2, 10, 30, 0.5).abort_migrations(70);
  EXPECT_NO_THROW(plan.validate(/*n_mds=*/3, /*max_ticks=*/200));
}

TEST(FaultPlan, RejectsOutOfRangeRank) {
  faults::FaultPlan plan;
  plan.crash(7, 50, 100);
  EXPECT_THROW(plan.validate(3, 200), std::invalid_argument);
}

TEST(FaultPlan, RejectsTickPastHorizon) {
  faults::FaultPlan plan;
  plan.crash(1, 500, 10);
  EXPECT_THROW(plan.validate(3, 200), std::invalid_argument);
}

TEST(FaultPlan, RejectsBadSlowFactor) {
  faults::FaultPlan bad_zero;
  bad_zero.slow(1, 10, 30, 0.0);
  EXPECT_THROW(bad_zero.validate(3, 200), std::invalid_argument);
  faults::FaultPlan bad_big;
  bad_big.slow(1, 10, 30, 1.5);
  EXPECT_THROW(bad_big.validate(3, 200), std::invalid_argument);
}

TEST(FaultPlan, AllExporterAbortNeedsNoRank) {
  faults::FaultPlan plan;
  plan.abort_migrations(10);
  EXPECT_NO_THROW(plan.validate(3, 200));
}

TEST(FaultPlan, JournalStallValidatesLikeOtherWindows) {
  faults::FaultPlan plan;
  plan.journal_stall(1, 50, 30);
  EXPECT_NO_THROW(plan.validate(3, 200));
  faults::FaultPlan zero;
  zero.journal_stall(1, 50, 0);
  EXPECT_THROW(zero.validate(3, 200), std::invalid_argument);
  faults::FaultPlan bad_rank;
  bad_rank.journal_stall(9, 50, 30);
  EXPECT_THROW(bad_rank.validate(3, 200), std::invalid_argument);
}

TEST(FaultPlan, FirstCrashTickIgnoresNonCrashEvents) {
  faults::FaultPlan plan;
  plan.slow(0, 5, 10, 0.5).abort_migrations(8);
  EXPECT_EQ(plan.first_crash_tick(), -1);
  plan.lose(1, 90).crash(2, 40, 10);
  EXPECT_EQ(plan.first_crash_tick(), 40);
}

// -- Cluster fail-over ----------------------------------------------------

class FaultClusterTest : public ::testing::Test {
 protected:
  FaultClusterTest() {
    dirs = fs::build_private_dirs(tree, "w", 6, 100);
    params.n_mds = 3;
    params.mds_capacity_iops = 50.0;
    params.epoch_ticks = 2;
  }

  fs::NamespaceTree tree;
  mds::ClusterParams params;
  std::vector<DirId> dirs;
};

TEST_F(FaultClusterTest, CrashFailsOverEverySubtree) {
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[0], 1);
  tree.set_auth(dirs[1], 1);
  tree.set_auth(dirs[2], 2);
  const std::uint64_t owned =
      tree.exclusive_inodes({.dir = dirs[0]}) +
      tree.exclusive_inodes({.dir = dirs[1]});

  const auto stats = cluster.set_down(1);
  EXPECT_EQ(stats.subtrees, 2u);
  EXPECT_EQ(stats.inodes, owned);
  EXPECT_FALSE(cluster.is_up(1));
  EXPECT_EQ(cluster.alive_count(), 2u);
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    EXPECT_NE(tree.auth_of(d), 1) << "dir " << d;
  }
  // Conservation: the census over alive ranks still covers everything.
  const auto census = tree.inodes_per_mds(params.n_mds);
  std::uint64_t sum = 0;
  for (const auto c : census) sum += c;
  EXPECT_EQ(sum, tree.total_inodes());
  EXPECT_EQ(census[1], 0u);
}

TEST_F(FaultClusterTest, FailoverSpreadsAcrossSurvivors) {
  mds::MdsCluster cluster(tree, params);
  // Four equal-sized subtrees on rank 2: the least-taken rule must not
  // dump all of them on one survivor.
  for (int i = 0; i < 4; ++i) tree.set_auth(dirs[static_cast<std::size_t>(i)], 2);
  cluster.set_down(2);
  const auto census = tree.inodes_per_mds(params.n_mds);
  EXPECT_GT(census[0], 0u);
  EXPECT_GT(census[1], 0u);
  EXPECT_EQ(census[2], 0u);
}

TEST_F(FaultClusterTest, DownServerHasZeroBudget) {
  mds::MdsCluster cluster(tree, params);
  cluster.set_down(2);
  cluster.begin_tick(0);
  EXPECT_FALSE(cluster.server(2).try_serve());
  EXPECT_TRUE(cluster.server(0).try_serve());
}

TEST_F(FaultClusterTest, RecoveryRestoresServiceWithClearedHistory) {
  mds::MdsCluster cluster(tree, params);
  cluster.begin_tick(0);
  while (cluster.server(2).try_serve()) {
  }
  cluster.close_epoch();
  ASSERT_FALSE(cluster.server(2).load_history().empty());

  cluster.set_down(2);
  cluster.set_up(2);
  EXPECT_TRUE(cluster.is_up(2));
  EXPECT_TRUE(cluster.server(2).load_history().empty());
  cluster.begin_tick(1);
  EXPECT_TRUE(cluster.server(2).try_serve());
}

TEST_F(FaultClusterTest, CrashAbortsInvolvedMigrations) {
  params.migration.bandwidth_inodes_per_tick = 1.0;  // keep them in flight
  mds::MdsCluster cluster(tree, params);
  ASSERT_TRUE(cluster.migration().submit({.dir = dirs[0]}, 1));
  ASSERT_TRUE(cluster.migration().submit({.dir = dirs[1]}, 2));
  cluster.begin_tick(0);
  cluster.end_tick();  // activate both

  const auto stats = cluster.set_down(1);
  EXPECT_EQ(stats.aborted_migrations, 1u);
  EXPECT_EQ(cluster.migration().migrations_aborted(), 1u);
  EXPECT_EQ(cluster.trace().counters().value("migration.aborted"), 1u);
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_NE(t.from, 1);
    EXPECT_NE(t.to, 1);
  }
}

TEST_F(FaultClusterTest, SubmitRefusesDownEndpoints) {
  mds::MdsCluster cluster(tree, params);
  cluster.set_down(1);
  EXPECT_FALSE(cluster.migration().submit({.dir = dirs[0]}, 1));
  EXPECT_TRUE(cluster.migration().submit({.dir = dirs[0]}, 2));
}

TEST_F(FaultClusterTest, DegradeShrinksBudget) {
  mds::MdsCluster cluster(tree, params);
  cluster.set_degrade(1, 0.2);
  cluster.begin_tick(0);
  int served = 0;
  while (cluster.server(1).try_serve()) ++served;
  EXPECT_EQ(served, 10);  // 50 IOPS x 0.2
  cluster.set_degrade(1, 1.0);
  cluster.begin_tick(1);
  served = 0;
  while (cluster.server(1).try_serve()) ++served;
  EXPECT_EQ(served, 50);
}

// -- Forced aborts with retry/backoff -------------------------------------

TEST(MigrationFaults, ForcedAbortRequeuesWithBackoff) {
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs = fs::build_private_dirs(tree, "w", 2, 50);
  mds::MigrationParams mp;
  mp.bandwidth_inodes_per_tick = 1.0;
  mp.hot_abort_iops = 1e9;
  mp.retry_backoff_ticks = 4;
  mds::MigrationEngine engine(tree, mp);
  ASSERT_TRUE(engine.submit({.dir = dirs[0]}, 1));
  engine.tick();  // now_=1, activates and streams a little
  ASSERT_TRUE(engine.tasks().front().active);

  EXPECT_EQ(engine.force_abort_active(), 1u);
  const mds::ExportTask& t = engine.tasks().front();
  EXPECT_FALSE(t.active);
  EXPECT_EQ(t.retries, 1);
  EXPECT_DOUBLE_EQ(t.transferred, 0.0);
  EXPECT_EQ(t.not_before, 1 + 4);
  EXPECT_EQ(engine.migrations_aborted(), 1u);

  // The task must not restart before its backoff window elapses.
  for (Tick tick = 2; tick <= 4; ++tick) {
    engine.tick();
    EXPECT_FALSE(engine.tasks().front().active) << "tick " << tick;
  }
  engine.tick();  // now_=5 >= not_before
  EXPECT_TRUE(engine.tasks().front().active);
}

TEST(MigrationFaults, RetriesAreBoundedThenDropped) {
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs = fs::build_private_dirs(tree, "w", 2, 50);
  mds::MigrationParams mp;
  mp.bandwidth_inodes_per_tick = 1.0;
  mp.hot_abort_iops = 1e9;
  mp.max_retries = 2;
  mp.retry_backoff_ticks = 1;
  mds::MigrationEngine engine(tree, mp);
  ASSERT_TRUE(engine.submit({.dir = dirs[0]}, 1));

  int forced = 0;
  for (int round = 0; round < 20 && !engine.tasks().empty(); ++round) {
    engine.tick();
    if (!engine.tasks().empty() && engine.tasks().front().active) {
      engine.force_abort_active();
      ++forced;
    }
  }
  EXPECT_TRUE(engine.tasks().empty());
  EXPECT_EQ(forced, mp.max_retries + 1);  // initial try + max_retries
  EXPECT_EQ(engine.migrations_aborted(), static_cast<std::uint64_t>(forced));
  EXPECT_EQ(engine.migrations_completed(), 0u);
  // Regression: the give-up is accounted, not silent.
  EXPECT_EQ(engine.retries_exhausted(), 1u);
}

TEST(MigrationFaults, RetryExhaustionEmitsTerminalTraceEvent) {
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs = fs::build_private_dirs(tree, "w", 2, 50);
  mds::MigrationParams mp;
  mp.bandwidth_inodes_per_tick = 1.0;
  mp.hot_abort_iops = 1e9;
  mp.max_retries = 1;
  mp.retry_backoff_ticks = 1;
  mds::MigrationEngine engine(tree, mp);
  obs::TraceRecorder trace;
  engine.set_tracer(&trace);
  ASSERT_TRUE(engine.submit({.dir = dirs[0]}, 1));

  for (int round = 0; round < 20 && !engine.tasks().empty(); ++round) {
    engine.tick();
    if (!engine.tasks().empty() && engine.tasks().front().active) {
      engine.force_abort_active();
    }
  }
  ASSERT_TRUE(engine.tasks().empty());
  EXPECT_EQ(engine.retries_exhausted(), 1u);
  // Exactly one terminal event, carrying the dropped task's endpoints.
  const obs::TraceRing& ring = trace.ring(obs::Component::kMigration);
  std::size_t terminal = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceEvent& e = ring.at(i);
    if (e.kind != obs::EventKind::kMigrationRetriesExhausted) continue;
    ++terminal;
    EXPECT_EQ(e.a, 0);
    EXPECT_EQ(e.b, 1);
    EXPECT_EQ(e.n0, static_cast<std::int64_t>(dirs[0]));
    EXPECT_EQ(e.n1, mp.max_retries);
  }
  EXPECT_EQ(terminal, 1u);
}

TEST(MigrationFaults, ExporterFilteredAbortLeavesOthersAlone) {
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs = fs::build_private_dirs(tree, "w", 3, 50);
  tree.set_auth(dirs[1], 1);
  mds::MigrationParams mp;
  mp.bandwidth_inodes_per_tick = 1.0;
  mp.hot_abort_iops = 1e9;
  mds::MigrationEngine engine(tree, mp);
  ASSERT_TRUE(engine.submit({.dir = dirs[0]}, 2));  // exporter 0
  ASSERT_TRUE(engine.submit({.dir = dirs[1]}, 2));  // exporter 1
  engine.tick();

  EXPECT_EQ(engine.force_abort_active(/*exporter=*/0), 1u);
  bool survivor_active = false;
  for (const mds::ExportTask& t : engine.tasks()) {
    if (t.from == 1) survivor_active = t.active;
  }
  EXPECT_TRUE(survivor_active);
}

// -- Injector -------------------------------------------------------------

TEST(FaultInjector, SkipsCrashOfLastAliveMds) {
  fs::NamespaceTree tree;
  fs::build_private_dirs(tree, "w", 4, 20);
  mds::ClusterParams params;
  params.n_mds = 2;
  mds::MdsCluster cluster(tree, params);

  faults::FaultPlan plan;
  plan.lose(0, 1).lose(1, 2);
  faults::FaultInjector injector(cluster, plan);
  injector.on_tick(1);
  injector.on_tick(2);
  EXPECT_TRUE(injector.done());
  EXPECT_EQ(injector.totals().applied, 1u);
  EXPECT_EQ(injector.totals().skipped, 1u);
  EXPECT_EQ(cluster.alive_count(), 1u);
  EXPECT_TRUE(cluster.is_up(1));
}

TEST(FaultInjector, AppliesActionsInPlanOrderWithinOneTick) {
  fs::NamespaceTree tree;
  fs::build_private_dirs(tree, "w", 4, 20);
  mds::ClusterParams params;
  params.n_mds = 3;
  mds::MdsCluster cluster(tree, params);

  faults::FaultPlan plan;
  plan.slow(0, 5, 10, 0.5).crash(1, 5, 3);
  faults::FaultInjector injector(cluster, plan);
  injector.on_tick(5);
  EXPECT_EQ(injector.totals().applied, 2u);
  EXPECT_FALSE(cluster.is_up(1));
  EXPECT_DOUBLE_EQ(cluster.server(0).degrade_factor(), 0.5);
  injector.on_tick(8);  // recovery action from the crash expansion
  EXPECT_TRUE(cluster.is_up(1));
  EXPECT_FALSE(injector.done());  // slow-node restore still pending
  injector.on_tick(15);
  EXPECT_DOUBLE_EQ(cluster.server(0).degrade_factor(), 1.0);
  EXPECT_TRUE(injector.done());
}

// -- End-to-end scenarios -------------------------------------------------

sim::ScenarioConfig faulty_config(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_clients = 12;
  cfg.scale = 0.2;
  cfg.max_ticks = 300;
  cfg.seed = seed;
  cfg.capture_trace = true;
  // Crash rank 0: it holds the root subtree, so a takeover is guaranteed.
  cfg.faults.crash(0, 60, 80).slow(2, 150, 40, 0.5).abort_migrations(100);
  return cfg;
}

TEST(FaultScenario, SameSeedSamePlanIsByteIdentical) {
  const sim::ScenarioConfig cfg = faulty_config(42);
  const sim::ScenarioResult a = sim::run_scenario(cfg);
  const sim::ScenarioResult b = sim::run_scenario(cfg);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_NE(a.trace_json.find("\"mds_crash\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"takeover\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"mds_recover\""), std::string::npos);
}

TEST(FaultScenario, ReportsRecoveryMetrics) {
  const sim::ScenarioResult r = sim::run_scenario(faulty_config(7));
  EXPECT_GE(r.faults.applied, 4u);  // crash+recover, slow+restore, abort
  EXPECT_EQ(r.first_crash_tick, 60);
  EXPECT_EQ(r.faults.skipped, 0u);
  EXPECT_GT(r.faults.subtrees, 0u);
  EXPECT_GT(r.total_served, 0u);
  // Every fault event got a home in the trace's faults component.
  EXPECT_NE(r.trace_json.find("\"faults\""), std::string::npos);
}

TEST(FaultScenario, FaultFreeRunsReportNeutralValues) {
  sim::ScenarioConfig cfg = faulty_config(3);
  cfg.faults = faults::FaultPlan{};
  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_EQ(r.faults.applied, 0u);
  EXPECT_EQ(r.first_crash_tick, -1);
  EXPECT_DOUBLE_EQ(r.reconverge_seconds(), -1.0);
}

TEST(FaultScenario, ReconvergeSecondsAfterACrash) {
  // Vanilla, rank 1 down for ticks 60-139: the alive-rank IF stays above
  // the Lunule trigger threshold until epoch 16 (ticks 160-169) closes,
  // 110 s after the crash.
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.balancer = sim::BalancerKind::kVanilla;
  cfg.n_clients = 24;
  cfg.scale = 0.2;
  cfg.max_ticks = 300;
  cfg.seed = 7;
  cfg.faults.crash(1, 60, 80);
  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_EQ(r.first_crash_tick, 60);
  EXPECT_DOUBLE_EQ(r.reconverge_seconds(), 110.0);
}

TEST(FaultScenario, MigrationRetryKnobsFlowIntoTheEngine) {
  sim::ScenarioConfig cfg;
  // Defaults reproduce the engine's historical constants, so existing
  // seeds keep tracing byte-identically.
  const mds::MigrationParams engine_defaults;
  mds::ClusterParams cp = sim::cluster_params_for(cfg);
  EXPECT_EQ(cp.migration.max_retries, engine_defaults.max_retries);
  EXPECT_EQ(cp.migration.retry_backoff_ticks,
            engine_defaults.retry_backoff_ticks);

  cfg.migration_max_retries = 0;
  cfg.migration_retry_backoff_ticks = 9;
  cp = sim::cluster_params_for(cfg);
  EXPECT_EQ(cp.migration.max_retries, 0);
  EXPECT_EQ(cp.migration.retry_backoff_ticks, 9);
}

TEST(FaultScenario, MalformedPlanThrowsBeforeRunning) {
  sim::ScenarioConfig cfg = faulty_config(3);
  cfg.faults = faults::FaultPlan{};
  cfg.faults.crash(99, 60, 80);  // rank outside the cluster
  EXPECT_THROW(sim::run_scenario(cfg), std::invalid_argument);
}

// -- Replication x crash --------------------------------------------------
// Regression: when the authority (or any holder) of a hot replicated
// dirfrag crashes mid-epoch, the dead rank's replica bit must vanish from
// every fragment, authority must fail over, the surviving replicas must
// keep spreading reads past a single rank's budget, and the next epoch
// close must not resurrect the dead bit.

class ReplicationCrashTest : public ::testing::Test {
 protected:
  ReplicationCrashTest() {
    dirs = fs::build_private_dirs(tree, "w", 3, 64);
    params.n_mds = 3;
    params.mds_capacity_iops = 100.0;
    params.epoch_ticks = 1;
    params.replicate_threshold_iops = 50.0;
    params.unreplicate_threshold_iops = 5.0;
  }

  /// One hot epoch on dirs[0] so its root fragment replicates everywhere.
  void replicate_hot_frag(mds::MdsCluster& cluster) {
    cluster.begin_tick(0);
    for (int i = 0; i < 80; ++i) cluster.try_serve(dirs[0], 0);
    cluster.end_tick();
    cluster.close_epoch();
    ASSERT_TRUE(tree.frag(dirs[0], 0).replicated());
    for (MdsId m = 0; m < 3; ++m) {
      ASSERT_TRUE(tree.frag(dirs[0], 0).replicated_on(m));
    }
  }

  /// True when no fragment of any directory still carries rank `m`.
  bool rank_absent_from_all_masks(MdsId m) const {
    for (DirId d = 0; d < tree.dir_count(); ++d) {
      const auto frags = static_cast<FragId>(tree.frag_count(d));
      for (FragId f = 0; f < frags; ++f) {
        if (tree.frag(d, f).replicated_on(m)) return false;
      }
    }
    return true;
  }

  fs::NamespaceTree tree;
  mds::ClusterParams params;
  std::vector<DirId> dirs;
};

TEST_F(ReplicationCrashTest, AuthorityCrashMidEpochClearsItsReplicaState) {
  tree.set_auth(dirs[0], 1);
  mds::MdsCluster cluster(tree, params);
  replicate_hot_frag(cluster);

  // Mid-epoch: a few reads land, then the authority dies.
  cluster.begin_tick(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(cluster.try_serve(dirs[0], 0), mds::ServeResult::kServed);
  }
  cluster.set_down(1);

  EXPECT_NE(tree.auth_of(dirs[0]), 1);
  EXPECT_TRUE(rank_absent_from_all_masks(1));
  // The frag is still replicated on both survivors...
  EXPECT_TRUE(tree.frag(dirs[0], 0).replicated_on(0));
  EXPECT_TRUE(tree.frag(dirs[0], 0).replicated_on(2));
  // ...and they keep spreading reads beyond one rank's budget in the very
  // tick of the crash.
  int served = 10;
  while (cluster.try_serve(dirs[0], 0) == mds::ServeResult::kServed) ++served;
  EXPECT_GT(served, 100);  // one rank's capacity is 100
  EXPECT_EQ(cluster.server(0).served_in_open_epoch() +
                cluster.server(2).served_in_open_epoch(),
            200u);
  cluster.end_tick();

  // The close after the crash must not hand a replica back to rank 1.
  cluster.close_epoch();
  EXPECT_TRUE(rank_absent_from_all_masks(1));
  EXPECT_TRUE(tree.frag(dirs[0], 0).replicated());
}

TEST_F(ReplicationCrashTest, NonAuthorityHolderCrashOnlyDropsItsBit) {
  mds::MdsCluster cluster(tree, params);  // authority stays rank 0
  replicate_hot_frag(cluster);

  cluster.begin_tick(1);
  cluster.set_down(2);

  EXPECT_EQ(tree.auth_of(dirs[0]), 0);
  EXPECT_TRUE(rank_absent_from_all_masks(2));
  EXPECT_TRUE(tree.frag(dirs[0], 0).replicated_on(0));
  EXPECT_TRUE(tree.frag(dirs[0], 0).replicated_on(1));
  int served = 0;
  while (cluster.try_serve(dirs[0], 0) == mds::ServeResult::kServed) ++served;
  EXPECT_EQ(served, 200);  // both survivors drained to their budgets
  cluster.end_tick();
  cluster.close_epoch();
  EXPECT_TRUE(rank_absent_from_all_masks(2));
}

}  // namespace
}  // namespace lunule
