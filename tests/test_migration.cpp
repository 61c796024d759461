// Tests for the two-phase migration engine: lag, freeze, commit, queueing.
#include "mds/migration.h"

#include <gtest/gtest.h>

#include "fs/builder.h"

namespace lunule::mds {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() {
    dirs = fs::build_private_dirs(tree, "w", 6, 100);  // 101 inodes each
  }

  MigrationParams slow_params() {
    MigrationParams p;
    p.bandwidth_inodes_per_tick = 10.0;  // 101 inodes => ~11 ticks
    p.max_inflight_per_exporter = 2;
    p.freeze_fraction = 0.2;
    return p;
  }

  /// Runs `eng` until dirs[0]'s export (submitted first, slow_params) sits
  /// in its commit window: 9 ticks x 10 inodes >= 80% of 101.
  void run_into_commit_window(MigrationEngine& eng) {
    for (int t = 0; t < 9; ++t) eng.tick();
    ASSERT_TRUE(eng.is_frozen(dirs[0], 0));
  }

  fs::NamespaceTree tree;
  std::vector<DirId> dirs;
};

TEST_F(MigrationTest, SubmitRejectsNoOpAndEmpty) {
  MigrationEngine eng(tree, slow_params());
  EXPECT_FALSE(eng.submit({.dir = dirs[0]}, 0));  // already owned by 0
  EXPECT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  EXPECT_FALSE(eng.submit({.dir = dirs[0]}, 2));  // duplicate pending
}

TEST_F(MigrationTest, TransferTakesMultipleTicksThenCommits) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  for (int t = 0; t < 10; ++t) {
    eng.tick();
    EXPECT_EQ(tree.auth_of(dirs[0]), 0) << "committed too early, t=" << t;
  }
  eng.tick();  // 11 * 10 = 110 >= 101
  EXPECT_EQ(tree.auth_of(dirs[0]), 1);
  EXPECT_EQ(eng.total_migrated_inodes(), 101u);
  EXPECT_EQ(eng.migrations_completed(), 1u);
}

TEST_F(MigrationTest, FreezeWindowBlocksTargetOnly) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  // Before 80% transferred: not frozen.
  eng.tick();
  EXPECT_FALSE(eng.is_frozen(dirs[0], 0));
  // Run to within the last 20%.
  for (int t = 0; t < 8; ++t) eng.tick();
  EXPECT_TRUE(eng.is_frozen(dirs[0], 0));
  EXPECT_FALSE(eng.is_frozen(dirs[1], 0));  // other subtrees unaffected
}

// The frozen set is re-derived by the calls that move a task into or out
// of its commit window; a unit must thaw in the very call that removes or
// rolls back its task, not at the next tick.
TEST_F(MigrationTest, FreezeEndsInForceAbortRequeue) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  ASSERT_NO_FATAL_FAILURE(run_into_commit_window(eng));
  ASSERT_EQ(eng.force_abort_active(), 1u);
  EXPECT_FALSE(eng.is_frozen(dirs[0], 0));
  ASSERT_EQ(eng.tasks().size(), 1u);  // rolled back and requeued
}

TEST_F(MigrationTest, FreezeEndsInForceAbortDrop) {
  MigrationParams p = slow_params();
  p.max_retries = 0;
  MigrationEngine eng(tree, p);
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  ASSERT_NO_FATAL_FAILURE(run_into_commit_window(eng));
  ASSERT_EQ(eng.force_abort_active(), 1u);
  EXPECT_FALSE(eng.is_frozen(dirs[0], 0));
  EXPECT_TRUE(eng.tasks().empty());
}

TEST_F(MigrationTest, FreezeEndsInCrashAbort) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  ASSERT_NO_FATAL_FAILURE(run_into_commit_window(eng));
  ASSERT_EQ(eng.abort_involving(1), 1u);  // the importer crashed
  EXPECT_FALSE(eng.is_frozen(dirs[0], 0));
}

TEST_F(MigrationTest, FreezeEndsInHotAbortTick) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  ASSERT_NO_FATAL_FAILURE(run_into_commit_window(eng));
  // 10000 visits over a 10 s epoch: 1000 IOPS, over hot_abort_iops.
  tree.frag(dirs[0], 0).open.visits = 10000;
  eng.tick();
  EXPECT_EQ(eng.migrations_aborted(), 1u);
  EXPECT_FALSE(eng.is_frozen(dirs[0], 0));
}

TEST_F(MigrationTest, FreezeEndsInCommitTick) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  ASSERT_NO_FATAL_FAILURE(run_into_commit_window(eng));
  eng.tick();  // 100 of 101 inodes: still in the window
  EXPECT_TRUE(eng.is_frozen(dirs[0], 0));
  eng.tick();
  ASSERT_EQ(eng.migrations_completed(), 1u);
  EXPECT_FALSE(eng.is_frozen(dirs[0], 0));
}

TEST_F(MigrationTest, QueuedTaskNeverFreezes) {
  // One slot per exporter and a 99% window: the active export freezes on
  // its first tick while the one queued behind it never does.
  MigrationParams p = slow_params();
  p.max_inflight_per_exporter = 1;
  p.freeze_fraction = 0.99;
  MigrationEngine eng(tree, p);
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  ASSERT_TRUE(eng.submit({.dir = dirs[1]}, 1));
  for (int t = 0; t < 10; ++t) {
    eng.tick();
    ASSERT_TRUE(eng.is_frozen(dirs[0], 0)) << "t=" << t;
    ASSERT_FALSE(eng.tasks().back().active);
    ASSERT_FALSE(eng.is_frozen(dirs[1], 0)) << "t=" << t;
  }
}

TEST_F(MigrationTest, InflightLimitQueuesExcessTasks) {
  MigrationEngine eng(tree, slow_params());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(eng.submit({.dir = dirs[static_cast<std::size_t>(i)]},
                           1));
  }
  EXPECT_EQ(eng.pending_exports(0), 5u);
  eng.tick();
  int active = 0;
  for (const ExportTask& t : eng.tasks()) {
    if (t.active) ++active;
  }
  EXPECT_EQ(active, 2);  // max_inflight_per_exporter
}

TEST_F(MigrationTest, BandwidthSharedAcrossActiveTasks) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  ASSERT_TRUE(eng.submit({.dir = dirs[1]}, 2));
  // Two active tasks share 10 inodes/tick => 5 each; a single task would
  // finish in 11 ticks, two concurrent ones need ~21.
  for (int t = 0; t < 20; ++t) eng.tick();
  EXPECT_EQ(eng.migrations_completed(), 0u);
  eng.tick();
  EXPECT_EQ(eng.migrations_completed(), 2u);
}

TEST_F(MigrationTest, DropQueuedKeepsActive) {
  MigrationEngine eng(tree, slow_params());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(eng.submit({.dir = dirs[static_cast<std::size_t>(i)]}, 1));
  }
  eng.tick();  // activates two
  eng.drop_queued(0);
  EXPECT_EQ(eng.pending_exports(0), 2u);
}

TEST_F(MigrationTest, InvolvedReflectsBothEndpoints) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 3));
  eng.tick();
  EXPECT_TRUE(eng.involved(0));
  EXPECT_TRUE(eng.involved(3));
  EXPECT_FALSE(eng.involved(2));
}

TEST_F(MigrationTest, BacklogTracksRemainingInodes) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  EXPECT_EQ(eng.backlog_inodes(), 101u);
  eng.tick();
  EXPECT_EQ(eng.backlog_inodes(), 91u);
  for (int t = 0; t < 15; ++t) eng.tick();
  EXPECT_EQ(eng.backlog_inodes(), 0u);
}

TEST_F(MigrationTest, AncestorExportBlocksDescendantSubmission) {
  const DirId parent = tree.add_dir(tree.root(), "p");
  const DirId child = tree.add_dir(parent, "c");
  tree.add_files(child, 50);
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = parent}, 1));
  EXPECT_FALSE(eng.submit({.dir = child}, 2));
}

// Regression: a task sitting out its retry backoff must re-validate both
// endpoints when it is about to restart.  The probe used to be consulted
// only at submit time, so a rank scaled down (or crashed without the
// cluster's abort_involving sweep) inside the backoff window would be
// streamed to anyway — exports against a gone importer.
TEST_F(MigrationTest, StaleRetryAgainstDeadImporterIsDroppedTerminally) {
  MigrationEngine eng(tree, slow_params());
  bool importer_alive = true;
  eng.set_liveness_probe([&](MdsId m) { return m != 1 || importer_alive; });
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  eng.tick();  // activates
  ASSERT_EQ(eng.force_abort_active(), 1u);  // requeued, backoff running
  ASSERT_EQ(eng.tasks().size(), 1u);
  ASSERT_FALSE(eng.tasks().front().active);

  importer_alive = false;  // rank 1 leaves while the task waits
  for (int t = 0; t < 10; ++t) eng.tick();  // past retry_backoff_ticks = 5

  EXPECT_TRUE(eng.tasks().empty()) << "stale task restarted against a "
                                      "dead importer";
  EXPECT_EQ(eng.retries_exhausted(), 1u);
  EXPECT_EQ(tree.auth_of(dirs[0]), 0);  // authority never moved
}

TEST_F(MigrationTest, StaleRetryAgainstDeadExporterIsDroppedTerminally) {
  MigrationEngine eng(tree, slow_params());
  bool exporter_alive = true;
  eng.set_liveness_probe([&](MdsId m) { return m != 0 || exporter_alive; });
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  eng.tick();
  ASSERT_EQ(eng.force_abort_active(), 1u);
  exporter_alive = false;
  for (int t = 0; t < 10; ++t) eng.tick();
  EXPECT_TRUE(eng.tasks().empty());
  EXPECT_EQ(eng.retries_exhausted(), 1u);
}

TEST_F(MigrationTest, RetryWithLiveEndpointsStillRestarts) {
  MigrationEngine eng(tree, slow_params());
  eng.set_liveness_probe([](MdsId) { return true; });
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  eng.tick();
  ASSERT_EQ(eng.force_abort_active(), 1u);
  // The control case: nothing died, so after the backoff the task restarts
  // and eventually commits.
  for (int t = 0; t < 20; ++t) eng.tick();
  EXPECT_EQ(eng.migrations_completed(), 1u);
  EXPECT_EQ(eng.retries_exhausted(), 0u);
  EXPECT_EQ(tree.auth_of(dirs[0]), 1);
}

TEST_F(MigrationTest, ImportProbeRefusesNewSubmissionsOnly) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));  // queued before the drain
  eng.set_import_probe([](MdsId m) { return m != 1; });
  EXPECT_FALSE(eng.submit({.dir = dirs[1]}, 1));  // draining rank refused
  EXPECT_TRUE(eng.submit({.dir = dirs[1]}, 2));   // other ranks fine
  // Pre-existing queued imports are untouched by the probe itself...
  EXPECT_EQ(eng.pending_exports(0), 2u);
  // ...and are cancelled explicitly by the drain sweep.
  EXPECT_EQ(eng.abort_queued_imports(1), 1u);
  EXPECT_EQ(eng.pending_exports(0), 1u);
}

TEST_F(MigrationTest, TouchesSeesQueuedAndActiveEndpoints) {
  MigrationEngine eng(tree, slow_params());
  ASSERT_TRUE(eng.submit({.dir = dirs[0]}, 1));
  EXPECT_TRUE(eng.touches(0));  // queued exporter
  EXPECT_TRUE(eng.touches(1));  // queued importer
  EXPECT_FALSE(eng.touches(2));
  eng.tick();
  EXPECT_TRUE(eng.touches(1));  // still true once active
  for (int t = 0; t < 15; ++t) eng.tick();
  EXPECT_FALSE(eng.touches(1));  // committed, nothing left
}

TEST_F(MigrationTest, FragMigrationFreezesOnlyThatFrag) {
  tree.fragment_dir(dirs[0], 1);  // 2 frags of 50
  // Near-total freeze fraction: frozen from the first streamed inode.
  MigrationEngine eng(tree, MigrationParams{.bandwidth_inodes_per_tick = 1.0,
                                            .max_inflight_per_exporter = 1,
                                            .freeze_fraction = 0.99,
                                            .capacity_penalty = 0.1});
  ASSERT_TRUE(eng.submit({.dir = dirs[0], .frag = 1}, 2));
  for (int t = 0; t < 2; ++t) eng.tick();
  EXPECT_TRUE(eng.is_frozen(dirs[0], 1));   // file 1 -> frag 1
  EXPECT_FALSE(eng.is_frozen(dirs[0], 0));  // file 0 -> frag 0
}

}  // namespace
}  // namespace lunule::mds
