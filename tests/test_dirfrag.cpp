// Tests for dirfrag splitting, fragment statistics redistribution, and
// lazy cutting-window advancement.
#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>

#include "fs/namespace_tree.h"

namespace lunule::fs {
namespace {

class DirfragTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_id = tree.add_dir(tree.root(), "big");
    tree.add_files(dir_id, 64);
  }

  NamespaceTree tree;
  DirId dir_id = kNoDir;
};

TEST_F(DirfragTest, UnfragmentedHasOneFrag) {
  EXPECT_FALSE(tree.fragmented(dir_id));
  EXPECT_EQ(tree.frag_count(dir_id), 1u);
  EXPECT_EQ(tree.frag(dir_id, 0).file_count, 64u);
  EXPECT_EQ(tree.frag_of(dir_id, 17), 0);
}

TEST_F(DirfragTest, SplitDistributesFilesEvenly) {
  tree.fragment_dir(dir_id, 3);  // 8 frags
  EXPECT_EQ(tree.frag_count(dir_id), 8u);
  for (FragId f = 0; f < 8; ++f) {
    EXPECT_EQ(tree.frag(dir_id, f).file_count, 8u);
  }
  EXPECT_EQ(tree.frag_of(dir_id, 13), 13 & 7);
}

TEST_F(DirfragTest, SplitPreservesVisitedCensus) {
  Directory& d = tree.dir(dir_id);
  // Mark files 0..15 visited.
  for (FileIndex i = 0; i < 16; ++i) d.file(i).last_access_epoch = 1;
  tree.frag(dir_id, 0).visited_files = 16;
  tree.fragment_dir(dir_id, 2);  // 4 frags of 16 files each
  std::uint32_t visited_total = 0;
  for (FragId f = 0; f < 4; ++f) {
    visited_total += tree.frag(dir_id, f).visited_files;
  }
  EXPECT_EQ(visited_total, 16u);
  // Files 0..15 interleave: each of the 4 frags holds exactly 4 of them.
  EXPECT_EQ(tree.frag(dir_id, 0).visited_files, 4u);
}

TEST_F(DirfragTest, SplitDividesHeatProportionally) {
  tree.frag(dir_id, 0).heat = 80.0;
  tree.fragment_dir(dir_id, 2);
  double total = 0.0;
  for (FragId f = 0; f < 4; ++f) total += tree.frag(dir_id, f).heat;
  EXPECT_NEAR(total, 80.0, 1e-9);
  EXPECT_NEAR(tree.frag(dir_id, 1).heat, 20.0, 1e-9);
}

TEST_F(DirfragTest, SplitScalesCuttingWindows) {
  FragStats& s = tree.frag(dir_id, 0);
  s.visits_window.push(40);
  s.visits_window.push(80);
  tree.fragment_dir(dir_id, 1);  // 2 frags
  const FragStats& f0 = tree.frag(dir_id, 0);
  EXPECT_EQ(f0.visits_window.size(), 2u);
  EXPECT_EQ(f0.visits_window.at(0), 40u);  // newest, halved
  EXPECT_EQ(f0.visits_window.at(1), 20u);
}

TEST_F(DirfragTest, SplitScalesOpenAccumulators) {
  // A split in the middle of an epoch hands each refining fragment its
  // file share of every open accumulator (here a quarter: 4 x 16 files).
  FragStats& s = tree.frag(dir_id, 0);
  s.visits_epoch = 64;
  s.file_visits_epoch = 32;
  s.first_visits_epoch = 16;
  s.recurrent_epoch = 8;
  s.creates_epoch = 4;
  s.sibling_credit_epoch = 2.0;
  tree.fragment_dir(dir_id, 2);
  for (FragId f = 0; f < 4; ++f) {
    const FragStats& nf = tree.frag(dir_id, f);
    EXPECT_EQ(nf.visits_epoch, 16u);
    EXPECT_EQ(nf.file_visits_epoch, 8u);
    EXPECT_EQ(nf.first_visits_epoch, 4u);
    EXPECT_EQ(nf.recurrent_epoch, 2u);
    EXPECT_EQ(nf.creates_epoch, 1u);
    EXPECT_DOUBLE_EQ(nf.sibling_credit_epoch, 0.5);
  }
}

TEST_F(DirfragTest, RefragmentInheritsPins) {
  tree.fragment_dir(dir_id, 1);  // 2 frags
  tree.set_frag_auth(dir_id, 1, 3);
  tree.fragment_dir(dir_id, 2);  // refine to 4
  // New frags 1 and 3 refine old frag 1 (f & 1 == 1): both keep the pin.
  EXPECT_EQ(tree.frag(dir_id, 1).auth_pin, 3);
  EXPECT_EQ(tree.frag(dir_id, 3).auth_pin, 3);
  EXPECT_EQ(tree.frag(dir_id, 0).auth_pin, kNoMds);
}

TEST_F(DirfragTest, ShrinkingFragmentationIsRejected) {
  tree.fragment_dir(dir_id, 3);
  EXPECT_DEATH(tree.fragment_dir(dir_id, 1), "split");
}

TEST_F(DirfragTest, CreateIntoFragmentedDirLandsInRightFrag) {
  tree.fragment_dir(dir_id, 2);  // 4 frags, 16 files each
  const FileIndex idx = tree.create_file(dir_id);
  EXPECT_EQ(idx, 64u);
  EXPECT_EQ(tree.frag(dir_id, 64 & 3).file_count, 17u);
}

// -- Layout ---------------------------------------------------------------

/// Offset one past the last byte of member `m`.
#define LUNULE_END_OF(m) (offsetof(FragStats, m) + sizeof(FragStats::m))

TEST(FragStatsLayout, PerOpFieldsFitTheFirst64Bytes) {
  static_assert(std::is_standard_layout_v<FragStats>);
  // Routing reads the pin and the replica mask; AccessRecorder::record()
  // compares stats_epoch with the clock and bumps the rest.
  EXPECT_LE(LUNULE_END_OF(auth_pin), 64u);
  EXPECT_LE(LUNULE_END_OF(file_count), 64u);
  EXPECT_LE(LUNULE_END_OF(visited_files), 64u);
  EXPECT_LE(LUNULE_END_OF(visits_epoch), 64u);
  EXPECT_LE(LUNULE_END_OF(file_visits_epoch), 64u);
  EXPECT_LE(LUNULE_END_OF(first_visits_epoch), 64u);
  EXPECT_LE(LUNULE_END_OF(recurrent_epoch), 64u);
  EXPECT_LE(LUNULE_END_OF(creates_epoch), 64u);
  EXPECT_LE(LUNULE_END_OF(replica_mask), 64u);
  EXPECT_LE(LUNULE_END_OF(heat), 64u);
  EXPECT_LE(LUNULE_END_OF(total_visits), 64u);
  EXPECT_LE(LUNULE_END_OF(stats_epoch), 64u);
  // One-byte ring cursors: six samples plus two bytes, padded.
  EXPECT_EQ(sizeof(RingBuffer<std::uint32_t, kCuttingWindows>), 28u);
  EXPECT_EQ(sizeof(RingBuffer<double, kCuttingWindows>), 56u);
  EXPECT_LE(sizeof(FragStats), 280u);
}

#undef LUNULE_END_OF

// -- Lazy cutting-window advancement --------------------------------------
// advance_to must replay the eager per-close sequence bit-identically: the
// recorder only folds touched directories and every reader catches a
// lagging fragment up on first read.

/// Applies one eager epoch close to `f` (the historical per-close body).
void eager_close(FragStats& f, double decay) {
  f.visits_window.push(f.visits_epoch);
  f.file_visits_window.push(f.file_visits_epoch);
  f.first_visits_window.push(f.first_visits_epoch);
  f.recurrent_window.push(f.recurrent_epoch);
  f.creates_window.push(f.creates_epoch);
  f.sibling_credit_window.push(f.sibling_credit_epoch);
  f.visits_epoch = 0;
  f.file_visits_epoch = 0;
  f.first_visits_epoch = 0;
  f.recurrent_epoch = 0;
  f.creates_epoch = 0;
  f.sibling_credit_epoch = 0.0;
  f.heat *= decay;
  if (f.heat < 0.01) f.heat = 0.0;
  ++f.stats_epoch;
}

void expect_same_observables(const FragStats& a, const FragStats& b) {
  EXPECT_DOUBLE_EQ(a.heat, b.heat);
  EXPECT_EQ(a.visits_window.window_sum(), b.visits_window.window_sum());
  EXPECT_EQ(a.file_visits_window.window_sum(),
            b.file_visits_window.window_sum());
  EXPECT_EQ(a.first_visits_window.window_sum(),
            b.first_visits_window.window_sum());
  EXPECT_EQ(a.recurrent_window.window_sum(), b.recurrent_window.window_sum());
  EXPECT_EQ(a.creates_window.window_sum(), b.creates_window.window_sum());
  EXPECT_DOUBLE_EQ(a.sibling_credit_window.window_sum(),
                   b.sibling_credit_window.window_sum());
  for (std::size_t i = 0; i < a.visits_window.size() && i < b.visits_window.size();
       ++i) {
    EXPECT_EQ(a.visits_window.at(i), b.visits_window.at(i)) << "entry " << i;
  }
}

TEST(LazyAdvancement, MatchesEagerCloseSequence) {
  constexpr double kDecay = 0.8;
  for (EpochId gap = 1; gap <= 12; ++gap) {
    FragStats lazy;
    lazy.visits_epoch = 7;
    lazy.file_visits_epoch = 5;
    lazy.first_visits_epoch = 3;
    lazy.recurrent_epoch = 2;
    lazy.creates_epoch = 1;
    lazy.sibling_credit_epoch = 1.5;
    lazy.heat = 40.0;
    lazy.visits_window.push(11);  // pre-existing history
    FragStats eager = lazy;

    lazy.advance_to(gap, kDecay);
    for (EpochId e = 0; e < gap; ++e) eager_close(eager, kDecay);

    expect_same_observables(lazy, eager);
    EXPECT_EQ(lazy.stats_epoch, eager.stats_epoch);
  }
}

TEST(LazyAdvancement, DeadEpochPredictionIsExact) {
  constexpr double kDecay = 0.8;
  FragStats f;
  f.visits_epoch = 9;
  f.heat = 2.0;
  f.advance_to(1, kDecay);  // fold; prediction is valid after a fold
  const EpochId dead = f.compute_dead_epoch(kDecay);
  ASSERT_GT(dead, f.stats_epoch);

  // One close before the predicted epoch the frag must still be live...
  FragStats probe = f;
  probe.advance_to(dead - 1, kDecay);
  EXPECT_TRUE(probe.heat > 0.0 || probe.visits_window.window_sum() > 0 ||
              probe.first_visits_window.window_sum() > 0 ||
              probe.sibling_credit_window.window_sum() > 0.0);
  // ... and exactly at it, fully drained.
  probe = f;
  probe.advance_to(dead, kDecay);
  EXPECT_EQ(probe.heat, 0.0);
  EXPECT_EQ(probe.visits_window.window_sum(), 0u);
  EXPECT_EQ(probe.first_visits_window.window_sum(), 0u);
  EXPECT_EQ(probe.sibling_credit_window.window_sum(), 0.0);
}

}  // namespace
}  // namespace lunule::fs
