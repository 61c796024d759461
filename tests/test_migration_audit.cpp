// Tests for post-migration validity auditing.
#include "mds/migration_audit.h"

#include <gtest/gtest.h>

#include "fs/builder.h"

namespace lunule::mds {
namespace {

class MigrationAuditTest : public ::testing::Test {
 protected:
  MigrationAuditTest() : audit(AuditParams{.observation_epochs = 3,
                                           .min_visits = 10}) {
    dirs = fs::build_private_dirs(tree, "w", 4, 64);
  }

  /// Pushes one epoch's visits into a directory's window.
  void push_epoch_visits(DirId d, std::uint32_t visits) {
    tree.frag(d, 0).windows.push({.visits = visits}, 0.0);
  }

  fs::NamespaceTree tree;
  std::vector<DirId> dirs;
  MigrationAudit audit;
};

TEST_F(MigrationAuditTest, FreshAuditorReportsFullValidity) {
  EXPECT_EQ(audit.audited(), 0u);
  EXPECT_DOUBLE_EQ(audit.valid_fraction(), 1.0);
}

TEST_F(MigrationAuditTest, VisitedMigrationIsValid) {
  audit.on_commit(tree, {.dir = dirs[0]}, 65, /*epoch=*/0);
  for (EpochId e = 1; e <= 4; ++e) {
    push_epoch_visits(dirs[0], 20);
    audit.on_epoch_close(tree, e);
  }
  EXPECT_EQ(audit.valid(), 1u);
  EXPECT_EQ(audit.invalid(), 0u);
  EXPECT_DOUBLE_EQ(audit.valid_fraction(), 1.0);
  EXPECT_EQ(audit.open_entries(), 0u);
}

TEST_F(MigrationAuditTest, UnvisitedMigrationIsInvalidAndWasted) {
  audit.on_commit(tree, {.dir = dirs[1]}, 65, /*epoch=*/0);
  for (EpochId e = 1; e <= 4; ++e) {
    push_epoch_visits(dirs[1], 0);
    audit.on_epoch_close(tree, e);
  }
  EXPECT_EQ(audit.invalid(), 1u);
  EXPECT_EQ(audit.wasted_inodes(), 65u);
  EXPECT_DOUBLE_EQ(audit.valid_fraction(), 0.0);
}

TEST_F(MigrationAuditTest, VisitsAccumulateAcrossTheWindow) {
  // 4 visits per epoch x 3 epochs = 12 >= threshold 10.
  audit.on_commit(tree, {.dir = dirs[2]}, 65, 0);
  for (EpochId e = 1; e <= 4; ++e) {
    push_epoch_visits(dirs[2], 4);
    audit.on_epoch_close(tree, e);
  }
  EXPECT_EQ(audit.valid(), 1u);
}

TEST_F(MigrationAuditTest, FragMigrationAuditedThroughLaterSplits) {
  tree.fragment_dir(dirs[3], 1);  // 2 frags
  audit.on_commit(tree, {.dir = dirs[3], .frag = 1}, 32, 0);
  // Refine further after the commit: frags 1 and 3 now refine old frag 1.
  tree.fragment_dir(dirs[3], 2);  // 4 frags
  tree.frag(dirs[3], 1).windows.push({.visits = 6}, 0.0);
  tree.frag(dirs[3], 3).windows.push({.visits = 6}, 0.0);
  tree.frag(dirs[3], 0).windows.push({.visits = 100}, 0.0);  // other half
  audit.on_epoch_close(tree, 1);
  audit.on_epoch_close(tree, 2);
  audit.on_epoch_close(tree, 3);
  EXPECT_EQ(audit.valid(), 1u);  // 6 + 6 >= 10, frag 0's visits not counted
}

TEST_F(MigrationAuditTest, MixedOutcomes) {
  audit.on_commit(tree, {.dir = dirs[0]}, 65, 0);
  audit.on_commit(tree, {.dir = dirs[1]}, 65, 0);
  for (EpochId e = 1; e <= 4; ++e) {
    push_epoch_visits(dirs[0], 50);
    push_epoch_visits(dirs[1], 0);
    audit.on_epoch_close(tree, e);
  }
  EXPECT_EQ(audit.audited(), 2u);
  EXPECT_DOUBLE_EQ(audit.valid_fraction(), 0.5);
}

}  // namespace
}  // namespace lunule::mds
