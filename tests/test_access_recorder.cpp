// Tests for per-access statistics recording and epoch roll-over.
#include "mds/access_recorder.h"

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "fs/builder.h"

namespace lunule::mds {
namespace {

class AccessRecorderTest : public ::testing::Test {
 protected:
  AccessRecorderTest() {
    dirs = fs::build_private_dirs(tree, "w", 4, 32);
  }

  RecorderParams params_with(double sibling_prob) {
    RecorderParams p;
    p.sibling_credit_prob = sibling_prob;
    return p;
  }

  fs::NamespaceTree tree;
  std::vector<DirId> dirs;
};

TEST_F(AccessRecorderTest, FirstAndRecurrentClassification) {
  AccessRecorder rec(tree, params_with(0.0), Rng(1));
  const AccessOutcome first = rec.record(dirs[0], 3, /*epoch=*/0);
  EXPECT_TRUE(first.first_visit);
  EXPECT_FALSE(first.recurrent);
  const AccessOutcome again = rec.record(dirs[0], 3, /*epoch=*/1);
  EXPECT_FALSE(again.first_visit);
  EXPECT_TRUE(again.recurrent);
  // Far outside the recurrence window: neither first nor recurrent.
  const AccessOutcome later = rec.record(dirs[0], 3, /*epoch=*/100);
  EXPECT_FALSE(later.first_visit);
  EXPECT_FALSE(later.recurrent);
}

TEST_F(AccessRecorderTest, FragCountersAccumulate) {
  AccessRecorder rec(tree, params_with(0.0), Rng(1));
  rec.record(dirs[0], 0, 0);
  rec.record(dirs[0], 0, 0);
  rec.record(dirs[0], 1, 0);
  const fs::FragStats& f = tree.frag(dirs[0], 0);
  EXPECT_EQ(f.open.visits, 3u);
  EXPECT_EQ(f.open.file_visits, 2u);  // same-epoch re-op is not a visit
  EXPECT_EQ(f.open.first_visits, 2u);
  EXPECT_EQ(f.open.recurrent, 0u);  // recurrence needs a later epoch
  EXPECT_EQ(f.visited_files, 2u);
  EXPECT_EQ(f.unvisited_files(), 30u);
  EXPECT_DOUBLE_EQ(f.heat, 3.0);
}

TEST_F(AccessRecorderTest, CloseEpochRollsWindowsAndDecaysHeat) {
  RecorderParams p = params_with(0.0);
  p.heat_decay = 0.5;
  AccessRecorder rec(tree, p, Rng(1));
  rec.record(dirs[0], 0, 0);
  rec.record(dirs[0], 1, 0);
  rec.close_epoch();
  const fs::FragStats& f = tree.frag(dirs[0], 0);
  EXPECT_EQ(f.open, fs::EpochCounts{});
  EXPECT_EQ(f.windows.newest().visits, 2u);
  EXPECT_EQ(f.windows.newest().first_visits, 2u);
  EXPECT_DOUBLE_EQ(f.heat, 1.0);  // 2 * 0.5
}

TEST_F(AccessRecorderTest, ActiveSetShrinksWhenStatsAge) {
  RecorderParams p = params_with(0.0);
  p.heat_decay = 0.1;  // ages out fast
  AccessRecorder rec(tree, p, Rng(1));
  rec.record(dirs[0], 0, 0);
  EXPECT_EQ(rec.active_dirs().size(), 1u);
  // After enough idle epochs both heat and the windows drain to zero.
  for (int e = 0; e < 10; ++e) rec.close_epoch();
  EXPECT_TRUE(rec.active_dirs().empty());
}

TEST_F(AccessRecorderTest, ActiveSetAscendingAfterEveryClose) {
  // Directories join the set in random touch order (records, sibling
  // credits, bare touches) and expire after idle stretches; each close
  // merges the newcomers into the survivors.
  fs::NamespaceTree big;
  const std::vector<DirId> many = fs::build_private_dirs(big, "m", 200, 8);
  RecorderParams p = params_with(0.5);
  p.heat_decay = 0.1;  // idle directories expire within a few closes
  AccessRecorder rec(big, p, Rng(3));
  Rng rng(17);
  std::size_t expiries = 0;
  std::size_t prev_size = 0;
  for (EpochId e = 0; e < 60; ++e) {
    const double density = (e % 10 < 3) ? 0.0 : rng.next_double() * 0.3;
    for (std::size_t k = 0; k < many.size(); ++k) {
      if (!rng.next_bool(density)) continue;
      const DirId d = many[rng.next_below(many.size())];
      if (rng.next_bool(0.1)) {
        rec.touch(d);
      } else {
        rec.record(d, static_cast<FileIndex>(rng.next_below(8)), e);
      }
    }
    rec.close_epoch();
    const std::vector<DirId>& active = rec.active_dirs();
    ASSERT_TRUE(std::adjacent_find(active.begin(), active.end(),
                                   std::greater_equal<>()) == active.end())
        << "not strictly ascending after close " << e;
    for (const DirId d : many) {
      EXPECT_EQ(rec.is_active(d),
                std::binary_search(active.begin(), active.end(), d));
    }
    if (active.size() < prev_size) ++expiries;
    prev_size = active.size();
  }
  EXPECT_GT(expiries, 0u);
}

TEST_F(AccessRecorderTest, SiblingCreditFlowsToSiblings) {
  AccessRecorder rec(tree, params_with(1.0), Rng(2));
  // Every first visit must credit exactly one sibling.
  for (FileIndex i = 0; i < 10; ++i) rec.record(dirs[0], i, 0);
  double credits = 0.0;
  for (std::size_t d = 0; d < dirs.size(); ++d) {
    credits += tree.frag(dirs[d], 0).sibling_credit_epoch;
    // The visited dir must never credit itself.
    if (d == 0) {
      EXPECT_DOUBLE_EQ(tree.frag(dirs[0], 0).sibling_credit_epoch, 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(credits, 10.0);
}

TEST_F(AccessRecorderTest, AdjacentCreditGoesToNextSiblingAndWraps) {
  // A CFS-style wide parent: the adjacent sibling is read from the dir's
  // stored position, which must agree with children() order at any width.
  fs::NamespaceTree wide;
  const std::vector<DirId> siblings =
      fs::build_private_dirs(wide, "t", 1000, 1);
  RecorderParams p = params_with(1.0);
  p.sibling_adjacent_fraction = 1.0;
  AccessRecorder rec(wide, p, Rng(5));
  auto credit = [&](std::size_t i) {
    return wide.frag(siblings[i], 0).sibling_credit_epoch;
  };
  for (const std::size_t i : {0, 1, 537, 998, 999}) {
    const std::size_t next = (i + 1) % siblings.size();  // 999 wraps to 0
    const double before = credit(next);
    rec.record(siblings[i], 0, 0);
    EXPECT_DOUBLE_EQ(credit(next), before + 1.0) << "sibling " << i;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < siblings.size(); ++i) total += credit(i);
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST_F(AccessRecorderTest, SiblingCreditRespectsProbability) {
  AccessRecorder rec(tree, params_with(0.25), Rng(3));
  for (FileIndex i = 0; i < 32; ++i) rec.record(dirs[1], i, 0);
  double credits = 0.0;
  for (const DirId d : dirs) {
    credits += tree.frag(d, 0).sibling_credit_epoch;
  }
  EXPECT_GT(credits, 1.0);
  EXPECT_LT(credits, 17.0);  // ~8 expected at p=0.25
}

TEST_F(AccessRecorderTest, CreatesAreFirstVisits) {
  AccessRecorder rec(tree, params_with(0.0), Rng(4));
  const FileIndex idx = tree.create_file(dirs[2]);
  rec.record_create(dirs[2], idx, 5);
  const fs::FragStats& f = tree.frag(dirs[2], 0);
  EXPECT_EQ(f.open.first_visits, 1u);
  EXPECT_EQ(f.open.visits, 1u);
  EXPECT_EQ(f.open.creates, 1u);
  EXPECT_TRUE(tree.dir(dirs[2]).file(idx).visited());
}

// -- The deterministic top-k hot-directory query --------------------------

TEST_F(AccessRecorderTest, LastEpochRateReadsTheClosedWindow) {
  AccessRecorder rec(tree, params_with(0.0), Rng(1));
  for (int i = 0; i < 6; ++i) rec.record(dirs[0], 0, 0);
  // Before the close, epoch 0 is still open: nothing closed yet.
  EXPECT_DOUBLE_EQ(rec.last_epoch_rate(dirs[0], 2.0), 0.0);
  rec.close_epoch();
  EXPECT_DOUBLE_EQ(rec.last_epoch_rate(dirs[0], 2.0), 3.0);  // 6 visits / 2 s
  // A silent epoch zeroes the rate again — no stale carry-over.
  rec.close_epoch();
  EXPECT_DOUBLE_EQ(rec.last_epoch_rate(dirs[0], 2.0), 0.0);
}

TEST_F(AccessRecorderTest, TopHotDirsOrdersByRateThenDirId) {
  AccessRecorder rec(tree, params_with(0.0), Rng(1));
  // dirs[2] hottest, dirs[0] and dirs[3] tied, dirs[1] untouched.
  for (int i = 0; i < 9; ++i) rec.record(dirs[2], 0, 0);
  for (int i = 0; i < 4; ++i) rec.record(dirs[0], 0, 0);
  for (int i = 0; i < 4; ++i) rec.record(dirs[3], 0, 0);
  rec.close_epoch();

  const auto top = rec.top_hot_dirs(10, /*epoch_seconds=*/1.0);
  ASSERT_EQ(top.size(), 3u);  // zero-rate dirs are never returned
  EXPECT_EQ(top[0].dir, dirs[2]);
  EXPECT_DOUBLE_EQ(top[0].rate_iops, 9.0);
  // Tie at 4 IOPS: the smaller dir id wins.
  EXPECT_EQ(top[1].dir, std::min(dirs[0], dirs[3]));
  EXPECT_EQ(top[2].dir, std::max(dirs[0], dirs[3]));
  EXPECT_DOUBLE_EQ(top[1].rate_iops, 4.0);
  EXPECT_DOUBLE_EQ(top[2].rate_iops, 4.0);
}

TEST_F(AccessRecorderTest, TopHotDirsTruncatesToK) {
  AccessRecorder rec(tree, params_with(0.0), Rng(1));
  for (int i = 0; i < 9; ++i) rec.record(dirs[2], 0, 0);
  for (int i = 0; i < 4; ++i) rec.record(dirs[0], 0, 0);
  for (int i = 0; i < 2; ++i) rec.record(dirs[1], 0, 0);
  rec.close_epoch();

  const auto top = rec.top_hot_dirs(2, 1.0);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].dir, dirs[2]);
  EXPECT_EQ(top[1].dir, dirs[0]);
  EXPECT_TRUE(rec.top_hot_dirs(0, 1.0).empty());
}

TEST_F(AccessRecorderTest, TopHotDirsSumsAcrossFragments) {
  // Visits spread over a fragmented directory count toward one rate.
  tree.fragment_dir(dirs[1], /*bits=*/2);  // 4 fragments
  AccessRecorder rec(tree, params_with(0.0), Rng(1));
  for (FileIndex i = 0; i < 8; ++i) rec.record(dirs[1], i, 0);
  rec.close_epoch();
  const auto top = rec.top_hot_dirs(1, 2.0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].dir, dirs[1]);
  EXPECT_DOUBLE_EQ(top[0].rate_iops, 4.0);  // 8 visits / 2 s over all frags
}

}  // namespace
}  // namespace lunule::mds
