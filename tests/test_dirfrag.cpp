// Tests for the cutting-window ring, dirfrag splitting, fragment statistics
// redistribution, and lazy cutting-window advancement.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "fs/namespace_tree.h"

namespace lunule::fs {
namespace {

// -- CuttingWindows ------------------------------------------------------

TEST(CuttingWindows, FillsThenEvictsOldest) {
  CuttingWindows w;
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.newest(), EpochCounts{});  // zeros before the first close
  EXPECT_EQ(w.sums(), WindowSums{});
  for (std::uint32_t e = 1; e <= kCuttingWindows; ++e) {
    w.push({.visits = e, .creates = 10 * e}, 0.5 * e);
  }
  EXPECT_EQ(w.size(), kCuttingWindows);
  EXPECT_EQ(w.sums(), (WindowSums{.visits = 21,
                                  .creates = 210,
                                  .sibling_credit = 10.5}));
  w.push({.visits = 7, .creates = 70}, 3.5);  // evicts epoch 1
  EXPECT_EQ(w.size(), kCuttingWindows);
  EXPECT_EQ(w.sums(), (WindowSums{.visits = 27,
                                  .creates = 270,
                                  .sibling_credit = 13.5}));
  EXPECT_EQ(w.newest(), (EpochCounts{.visits = 7, .creates = 70}));
  EXPECT_EQ(w.counts(0), w.newest());
  EXPECT_EQ(w.counts(kCuttingWindows - 1).visits, 2u);  // oldest
  EXPECT_EQ(w.sibling_credit(0), 3.5);
  EXPECT_EQ(w.sibling_credit(kCuttingWindows - 1), 1.0);
}

/// sums() adds the counts over every slot in one pass and the credits in
/// two straight runs instead of a modulo per slot; each must equal the sum
/// of counts(0), counts(1), ... (credits: sibling_credit(0), ...) in that
/// order, the credits bit for bit (a floating-point sum depends on its
/// order), at every reachable head and size: sizes below the span while
/// filling, then every head once full.
TEST(CuttingWindows, CreditSumIsTheNewestFirstSum) {
  // Magnitudes far apart, so any other addition order rounds differently.
  const auto mixed = [](std::size_t k) {
    const double big = (k % 3 == 0) ? 1e16 : 1.0;
    return (k % 2 == 0 ? big : -big) + 0.1 * static_cast<double>(k);
  };
  CuttingWindows w;
  for (std::size_t pushes = 0; pushes <= 3 * kCuttingWindows; ++pushes) {
    WindowSums want;
    for (std::size_t i = 0; i < w.size(); ++i) {
      want += WindowSums{.visits = w.counts(i).visits,
                         .file_visits = w.counts(i).file_visits,
                         .first_visits = w.counts(i).first_visits,
                         .recurrent = w.counts(i).recurrent,
                         .creates = w.counts(i).creates,
                         .sibling_credit = w.sibling_credit(i)};
    }
    const WindowSums got = w.sums();
    EXPECT_EQ(got, want) << "after " << pushes << " pushes";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sibling_credit),
              std::bit_cast<std::uint64_t>(want.sibling_credit))
        << "after " << pushes << " pushes";
    const auto k = static_cast<std::uint32_t>(pushes);
    w.push({.visits = k + 1,
            .file_visits = 2 * k,
            .first_visits = k % 3,
            .recurrent = k / 2,
            .creates = k % 2},
           mixed(pushes));
  }
}

/// Pushes `slot` as the newest epoch, then empty epochs: live_steps() counts
/// the closes left until the slot is evicted, and the window sums are
/// non-zero exactly while it is held.
void expect_live_until_evicted(const EpochCounts& counts, double credit) {
  CuttingWindows w;
  w.push({.visits = 3}, 1.0);  // older history, evicted first
  w.push(counts, credit);
  for (std::size_t k = 0; k < kCuttingWindows; ++k) {
    const auto left = static_cast<EpochId>(kCuttingWindows - k);
    EXPECT_EQ(w.live_steps(), left) << "after " << k << " empty closes";
    EXPECT_NE(w.sums(), WindowSums{}) << "after " << k << " empty closes";
    w.push({}, 0.0);
  }
  EXPECT_EQ(w.live_steps(), 0);
  EXPECT_EQ(w.sums(), WindowSums{});
}

TEST(CuttingWindows, LiveStepsSeeEveryField) {
  EXPECT_EQ(CuttingWindows{}.live_steps(), 0);
  // The cases the window-live set must not miss: a slot whose only
  // non-zero field is a sibling credit or a create count still gives the
  // unit a migration index.
  expect_live_until_evicted({}, 0.5);
  expect_live_until_evicted({.creates = 1}, 0.0);
  expect_live_until_evicted({.visits = 2, .file_visits = 1}, 0.0);
  expect_live_until_evicted({.recurrent = 1}, 0.0);
  // An all-zero newest slot is not live; the older one still is.
  CuttingWindows w;
  w.push({.first_visits = 4}, 0.0);
  w.push({}, 0.0);
  EXPECT_EQ(w.live_steps(), static_cast<EpochId>(kCuttingWindows - 1));
}

// -- Dirfrags -------------------------------------------------------------

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
  s.windows.push({.visits = 40,
                  .file_visits = 20,
                  .first_visits = 10,
                  .recurrent = 6,
                  .creates = 3},
                 3.0);
  s.windows.push({.visits = 80}, 0.0);
  tree.fragment_dir(dir_id, 1);  // 2 frags
  for (FragId f = 0; f < 2; ++f) {
    const CuttingWindows& w = tree.frag(dir_id, f).windows;
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w.counts(0), (EpochCounts{.visits = 40}));  // newest, halved
    EXPECT_EQ(w.counts(1), (EpochCounts{.visits = 20,
                                        .file_visits = 10,
                                        .first_visits = 5,
                                        .recurrent = 3,
                                        .creates = 1}));  // 1.5 truncates
    EXPECT_EQ(w.sibling_credit(0), 0.0);
    EXPECT_EQ(w.sibling_credit(1), 1.5);
  }
}

TEST_F(DirfragTest, SplitScalesOpenAccumulators) {
  // A split in the middle of an epoch hands each refining fragment its
  // file share of every open accumulator (here a quarter: 4 x 16 files).
  FragStats& s = tree.frag(dir_id, 0);
  s.open = {.visits = 64,
            .file_visits = 32,
            .first_visits = 16,
            .recurrent = 8,
            .creates = 4};
  s.sibling_credit_epoch = 2.0;
  tree.fragment_dir(dir_id, 2);
  for (FragId f = 0; f < 4; ++f) {
    const FragStats& nf = tree.frag(dir_id, f);
    EXPECT_EQ(nf.open, (EpochCounts{.visits = 16,
                                    .file_visits = 8,
                                    .first_visits = 4,
                                    .recurrent = 2,
                                    .creates = 1}));
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
  EXPECT_LE(LUNULE_END_OF(open), 64u);
  EXPECT_LE(LUNULE_END_OF(replica_mask), 64u);
  EXPECT_LE(LUNULE_END_OF(heat), 64u);
  EXPECT_LE(LUNULE_END_OF(stats_epoch), 64u);
  // Six slots of five counts and a credit, one-byte cursors, padded.
  EXPECT_EQ(sizeof(EpochCounts), 20u);
  EXPECT_EQ(sizeof(CuttingWindows), 176u);
  EXPECT_LE(sizeof(FragStats), 248u);
}

#undef LUNULE_END_OF

// -- Lazy cutting-window advancement --------------------------------------
// advance_to must replay the eager per-close sequence bit-identically: the
// recorder only folds touched directories and every reader catches a
// lagging fragment up on first read.

/// Applies one eager epoch close to `f` (the historical per-close body).
void eager_close(FragStats& f, double decay) {
  f.windows.push(f.open, f.sibling_credit_epoch);
  f.open = {};
  f.sibling_credit_epoch = 0.0;
  f.heat *= decay;
  if (f.heat < 0.01) f.heat = 0.0;
  ++f.stats_epoch;
}

void expect_same_observables(const FragStats& a, const FragStats& b) {
  EXPECT_DOUBLE_EQ(a.heat, b.heat);
  EXPECT_EQ(a.windows.sums(), b.windows.sums());
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows.counts(i), b.windows.counts(i)) << "entry " << i;
    EXPECT_EQ(a.windows.sibling_credit(i), b.windows.sibling_credit(i))
        << "entry " << i;
  }
}

TEST(LazyAdvancement, MatchesEagerCloseSequence) {
  constexpr double kDecay = 0.8;
  for (EpochId gap = 1; gap <= 12; ++gap) {
    FragStats lazy;
    lazy.open = {.visits = 7,
                 .file_visits = 5,
                 .first_visits = 3,
                 .recurrent = 2,
                 .creates = 1};
    lazy.sibling_credit_epoch = 1.5;
    lazy.heat = 40.0;
    lazy.windows.push({.visits = 11}, 0.0);  // pre-existing history
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
  f.open.visits = 9;
  f.heat = 2.0;
  f.advance_to(1, kDecay);  // fold; prediction is valid after a fold
  const EpochId dead = f.compute_dead_epoch(kDecay);
  ASSERT_GT(dead, f.stats_epoch);

  // One close before the predicted epoch the frag must still be live...
  FragStats probe = f;
  probe.advance_to(dead - 1, kDecay);
  EXPECT_TRUE(probe.heat > 0.0 || probe.windows.sums() != WindowSums{});
  // ... and exactly at it, fully drained.
  probe = f;
  probe.advance_to(dead, kDecay);
  EXPECT_EQ(probe.heat, 0.0);
  EXPECT_EQ(probe.windows.sums(), WindowSums{});
}

}  // namespace
}  // namespace lunule::fs
