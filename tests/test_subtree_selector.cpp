// Tests for the workload-aware subtree selector's three search paths.
#include "core/subtree_selector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fs/builder.h"

namespace lunule::core {
namespace {

class SelectorTest : public ::testing::Test {
 protected:
  SelectorTest() {
    dirs = fs::build_private_dirs(tree, "w", 8, 120);
  }

  /// Gives directory `d` a steady temporal load of `iops` (visits recur),
  /// spread over the full 60-second / 6-epoch window so the observed
  /// last-epoch rate equals `iops` too.
  void set_temporal_load(DirId d, double iops) {
    fs::FragStats& f = tree.frag(d, 0);
    const auto per_epoch = static_cast<std::uint32_t>(iops * 10.0);
    for (std::size_t e = 0; e < fs::kCuttingWindows; ++e) {
      f.windows.push({.visits = per_epoch,
                      .file_visits = per_epoch,
                      .recurrent = per_epoch},
                     0.0);
    }
  }

  SelectorParams params() {
    SelectorParams p;
    p.window_seconds = 60.0;
    p.inode_cap = 100000;
    p.min_files_to_fragment = 16;
    return p;
  }

  fs::NamespaceTree tree;
  std::vector<DirId> dirs;
};

TEST_F(SelectorTest, NoCandidatesYieldsEmpty) {
  const SubtreeSelector sel(params());
  EXPECT_TRUE(sel.select(tree, 0, 100.0).empty());
}

TEST_F(SelectorTest, PathOneExactishMatchPicksSingleSubtree) {
  set_temporal_load(dirs[0], 500.0);
  set_temporal_load(dirs[1], 95.0);  // within 10% of the demand of 100
  set_temporal_load(dirs[2], 20.0);
  const SubtreeSelector sel(params());
  const auto picks = sel.select(tree, 0, 100.0);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0].ref.dir, dirs[1]);
  EXPECT_NEAR(picks[0].predicted_iops, 95.0, 1.0);
}

TEST_F(SelectorTest, PathTwoSplitsOversizedDirectory) {
  // Only one candidate, far above the demand (and above the hot-skip
  // rate): the selector must fragment it and return a subset of frags
  // instead of the whole directory.
  set_temporal_load(dirs[0], 800.0);
  const SubtreeSelector sel(params());
  const auto picks = sel.select(tree, 0, 200.0);
  ASSERT_FALSE(picks.empty());
  EXPECT_TRUE(tree.fragmented(dirs[0]));
  double total = 0.0;
  for (const Selection& s : picks) {
    EXPECT_TRUE(s.ref.is_frag());
    total += s.predicted_iops;
  }
  EXPECT_LT(total, 800.0);  // strictly less than moving everything
  EXPECT_GT(total, 90.0);   // but a meaningful share of the demand
}

TEST_F(SelectorTest, PathThreeGreedyMinimalSet) {
  for (int i = 0; i < 6; ++i) {
    set_temporal_load(dirs[static_cast<std::size_t>(i)], 40.0);
  }
  const SubtreeSelector sel(params());
  const auto picks = sel.select(tree, 0, 120.0);
  ASSERT_EQ(picks.size(), 3u);  // 3 x 40 == 120
  double total = 0.0;
  for (const Selection& s : picks) total += s.predicted_iops;
  EXPECT_NEAR(total, 120.0, 12.0);
}

TEST_F(SelectorTest, InodeCapBoundsSelection) {
  for (int i = 0; i < 8; ++i) {
    set_temporal_load(dirs[static_cast<std::size_t>(i)], 30.0);
  }
  SelectorParams p = params();
  p.inode_cap = 250;  // each dir is 121 inodes: at most 2 fit
  const SubtreeSelector sel(p);
  const auto picks = sel.select(tree, 0, 10000.0);
  std::uint64_t inodes = 0;
  for (const Selection& s : picks) inodes += s.inodes;
  EXPECT_LE(inodes, 250u);
  EXPECT_EQ(picks.size(), 2u);
}

TEST_F(SelectorTest, MaxSubtreesBoundsSelection) {
  for (int i = 0; i < 8; ++i) {
    set_temporal_load(dirs[static_cast<std::size_t>(i)], 10.0);
  }
  SelectorParams p = params();
  p.max_subtrees = 3;
  const SubtreeSelector sel(p);
  EXPECT_LE(sel.select(tree, 0, 10000.0).size(), 3u);
}

TEST_F(SelectorTest, OnlySelectsFromRequestedExporter) {
  set_temporal_load(dirs[0], 50.0);
  set_temporal_load(dirs[1], 50.0);
  tree.set_auth(dirs[1], 2);  // owned elsewhere
  const SubtreeSelector sel(params());
  for (const Selection& s : sel.select(tree, 0, 100.0)) {
    EXPECT_NE(s.ref.dir, dirs[1]);
  }
}

TEST_F(SelectorTest, ExhaustedSubtreesNeverSelected) {
  // Visited-out directory with stale heat but zero migration index.
  fs::Directory& d = tree.dir(dirs[0]);
  tree.frag(dirs[0], 0).heat = 9999.0;
  tree.frag(dirs[0], 0).visited_files = tree.frag(dirs[0], 0).file_count;
  for (FileIndex i = 0; i < d.file_count(); ++i) {
    d.file(i).last_access_epoch = 0;
  }
  set_temporal_load(dirs[1], 50.0);
  const SubtreeSelector sel(params());
  for (const Selection& s : sel.select(tree, 0, 100.0)) {
    EXPECT_NE(s.ref.dir, dirs[0]);
  }
}

TEST_F(SelectorTest, ZeroAmountSelectsNothing) {
  set_temporal_load(dirs[0], 50.0);
  const SubtreeSelector sel(params());
  EXPECT_TRUE(sel.select(tree, 0, 0.0).empty());
}

// -- Equivalence with the full-sort selector --------------------------------

/// The full-sort selector: score every candidate, std::sort all of them
/// under (pred descending, ref_tie_before), then walk the sorted list
/// through the same three paths.  The oracle that the sort-free paths of
/// SubtreeSelector::select must match bit for bit.
std::vector<Selection> reference_select(const SelectorParams& params_,
                                        fs::NamespaceTree& tree,
                                        MdsId exporter, double amount_iops,
                                        std::uint64_t inode_budget_override) {
  struct Scored {
    balancer::Candidate cand;
    MigrationIndex idx;
    double pred = 0.0;
  };
  const std::uint64_t inode_cap = inode_budget_override > 0
                                      ? inode_budget_override
                                      : params_.inode_cap;
  std::vector<Selection> out;
  if (amount_iops <= 0.0) return out;
  const double epoch_seconds =
      params_.window_seconds / static_cast<double>(fs::kCuttingWindows);
  const auto current_rate = [&](const balancer::Candidate& c) {
    return static_cast<double>(c.visits_last_epoch) / epoch_seconds;
  };
  std::vector<balancer::Candidate> cands;
  balancer::collect_candidates_into(cands, tree, exporter);
  std::vector<Scored> scored;
  for (balancer::Candidate& c : cands) {
    const MigrationIndex idx = compute_mindex(c);
    const double p = idx.predicted_iops(params_.window_seconds);
    if (p > 0.0) {
      scored.push_back(Scored{.cand = std::move(c), .idx = idx, .pred = p});
    }
  }
  if (scored.empty()) return out;
  std::sort(scored.begin(), scored.end(), [](const Scored& a,
                                             const Scored& b) {
    if (a.pred != b.pred) return a.pred > b.pred;
    return balancer::ref_tie_before(a.cand.ref, b.cand.ref);
  });
  const double tol = params_.tolerance * amount_iops;
  for (const Scored& s : scored) {
    if (std::abs(s.pred - amount_iops) <= tol &&
        s.cand.inodes <= inode_cap &&
        current_rate(s.cand) <= params_.hot_skip_iops) {
      return {Selection{.ref = s.cand.ref,
                        .predicted_iops = s.pred,
                        .inodes = s.cand.inodes,
                        .index = s.idx}};
    }
  }
  const Scored* oversized = nullptr;
  for (const Scored& s : scored) {
    if (s.pred > amount_iops) oversized = &s;
  }
  if (oversized != nullptr && !oversized->cand.ref.is_frag()) {
    const DirId d = oversized->cand.ref.dir;
    const fs::Directory& dir = tree.dir(d);
    if (dir.file_count() >= params_.min_files_to_fragment) {
      int depth = 0;
      std::uint32_t per_frag = dir.file_count();
      while (depth < params_.split_bits &&
             per_frag / 2 >= params_.min_files_to_fragment / 2) {
        per_frag /= 2;
        ++depth;
      }
      if (depth == 0) depth = 1;
      const auto bits = static_cast<std::uint8_t>(
          std::min<int>(std::max<int>(tree.frag_bits(d) + 1, depth), 10));
      tree.fragment_dir(d, bits);
      double remaining = amount_iops;
      std::uint64_t inode_budget = inode_cap;
      for (FragId f = 0; f < static_cast<FragId>(tree.frag_count(d)); ++f) {
        if (remaining <= tol || out.size() >= params_.max_subtrees) break;
        const balancer::Candidate fc = balancer::make_candidate(
            tree, fs::SubtreeRef{.dir = d, .frag = f});
        if (fc.auth != exporter) continue;
        if (current_rate(fc) > params_.hot_skip_iops) continue;
        const MigrationIndex fidx = compute_mindex(fc);
        const double p = fidx.predicted_iops(params_.window_seconds);
        if (p <= 0.0 || fc.inodes > inode_budget) continue;
        out.push_back(Selection{.ref = fc.ref,
                                .predicted_iops = p,
                                .inodes = fc.inodes,
                                .index = fidx});
        remaining -= p;
        inode_budget -= fc.inodes;
      }
      if (!out.empty()) return out;
    }
  }
  double remaining = amount_iops;
  std::uint64_t inode_budget = inode_cap;
  for (const Scored& s : scored) {
    if (remaining <= tol || out.size() >= params_.max_subtrees) break;
    if (s.cand.inodes > inode_budget) continue;
    if (current_rate(s.cand) > params_.hot_skip_iops) continue;
    if (s.pred > remaining * (1.0 + params_.tolerance)) continue;
    out.push_back(Selection{.ref = s.cand.ref,
                            .predicted_iops = s.pred,
                            .inodes = s.cand.inodes,
                            .index = s.idx});
    remaining -= s.pred;
    inode_budget -= s.cand.inodes;
  }
  return out;
}

/// A random namespace seeded by `seed`: a few groups of leaf directories
/// with random sizes, owners and fragmentation, whose cutting windows hold
/// small integers (so many candidates tie on the predicted rate), plus a
/// few hot units above the hot-skip rate and a few large ones above any
/// small inode cap.  Building it twice from one seed gives equal trees.
void build_random_tree(fs::NamespaceTree& tree, std::uint64_t seed) {
  Rng rng(seed);
  const auto groups = static_cast<int>(rng.next_between(2, 5));
  for (int g = 0; g < groups; ++g) {
    const DirId group = tree.add_dir(tree.root(), "g" + std::to_string(g));
    tree.set_auth(group, static_cast<MdsId>(rng.next_below(3)));
    const auto leaves = static_cast<int>(rng.next_between(10, 60));
    for (int i = 0; i < leaves; ++i) {
      const DirId d = tree.add_dir(group, "d" + std::to_string(i));
      const bool big = rng.next_bool(0.1);
      tree.add_files(d, static_cast<std::uint32_t>(
                            big ? rng.next_between(200, 600)
                                : rng.next_between(1, 60)));
      if (rng.next_bool(0.15)) tree.set_auth(d, 0);
      if (tree.dir(d).file_count() >= 8 && rng.next_bool(0.2)) {
        tree.fragment_dir(
            d, static_cast<std::uint8_t>(rng.next_between(1, 3)));
        for (FragId f = 0; f < static_cast<FragId>(tree.frag_count(d));
             ++f) {
          if (rng.next_bool(0.3)) {
            tree.set_frag_auth(d, f, static_cast<MdsId>(rng.next_below(3)));
          }
        }
      }
      const bool hot = rng.next_bool(0.05);
      for (fs::FragStats& frag : tree.frags(d)) {
        frag.visited_files = static_cast<std::uint32_t>(
            rng.next_below(frag.file_count + 1));
        for (std::size_t w = 0; w < fs::kCuttingWindows; ++w) {
          const auto visits = static_cast<std::uint32_t>(
              hot && w + 1 == fs::kCuttingWindows ? 5000
                                                  : rng.next_below(4) * 60);
          const bool flat = rng.next_bool(0.7);
          const auto first = static_cast<std::uint32_t>(
              flat ? 0 : rng.next_below(visits / 60 + 1));
          const auto creates =
              static_cast<std::uint32_t>(rng.next_below(first + 1));
          const auto credit = static_cast<double>(rng.next_below(3));
          frag.windows.push({.visits = visits,
                             .file_visits = visits,
                             .first_visits = first,
                             .recurrent = flat ? visits : visits / 2,
                             .creates = creates},
                            credit);
        }
      }
    }
  }
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST_F(SelectorTest, MatchesFullSortReference) {
  int path_hits[3] = {0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Rng rng(seed * 7919);
    SelectorParams p;
    p.min_files_to_fragment = 16;
    p.max_subtrees = static_cast<std::size_t>(rng.next_between(2, 64));
    p.inode_cap = rng.next_bool(0.3) ? rng.next_between(60, 400) : 40000;
    const std::uint64_t budget_override =
        rng.next_bool(0.2) ? rng.next_between(100, 2000) : 0;

    // Amount: a candidate's own rate (path 1), a fraction of a large one
    // (path 2), or a multiple of the typical rate (path 3).
    fs::NamespaceTree probe;
    build_random_tree(probe, seed);
    std::vector<double> preds;
    for (const balancer::Candidate& c :
         balancer::collect_candidates(probe, 0)) {
      const double pred = compute_mindex(c).predicted_iops(p.window_seconds);
      if (pred > 0.0) preds.push_back(pred);
    }
    if (preds.empty()) continue;
    const double pick = preds[rng.next_below(preds.size())];
    const double amounts[] = {pick, pick * 0.3, pick * 7.0,
                              pick * rng.next_between(2, 40) / 3.0};
    for (const double amount : amounts) {
      fs::NamespaceTree ref_tree;
      fs::NamespaceTree new_tree;
      build_random_tree(ref_tree, seed);
      build_random_tree(new_tree, seed);
      const std::vector<Selection> want =
          reference_select(p, ref_tree, 0, amount, budget_override);
      const std::vector<Selection> got =
          SubtreeSelector(p).select(new_tree, 0, amount, budget_override);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " pick " +
                     std::to_string(i));
        EXPECT_EQ(got[i].ref, want[i].ref);
        EXPECT_EQ(got[i].inodes, want[i].inodes);
        EXPECT_TRUE(bits_equal(got[i].predicted_iops, want[i].predicted_iops));
        EXPECT_TRUE(bits_equal(got[i].index.alpha, want[i].index.alpha));
        EXPECT_TRUE(bits_equal(got[i].index.beta, want[i].index.beta));
        EXPECT_TRUE(bits_equal(got[i].index.l_t, want[i].index.l_t));
        EXPECT_TRUE(bits_equal(got[i].index.l_s, want[i].index.l_s));
        EXPECT_TRUE(bits_equal(got[i].index.mindex, want[i].index.mindex));
      }
      for (DirId d = 0; d < ref_tree.dir_count(); ++d) {
        ASSERT_EQ(new_tree.frag_bits(d), ref_tree.frag_bits(d));
      }
      // Which path produced the selection: path 2 splits a directory and
      // takes only its fragments; path 1 takes one unit within tolerance.
      if (want.empty()) continue;
      const DirId first_dir = want.front().ref.dir;
      const bool split = std::any_of(
          want.begin(), want.end(), [&](const Selection& s) {
            return s.ref.is_frag() &&
                   ref_tree.frag_bits(s.ref.dir) != probe.frag_bits(s.ref.dir);
          });
      const bool one_dir = std::all_of(
          want.begin(), want.end(),
          [&](const Selection& s) { return s.ref.dir == first_dir; });
      if (split && one_dir) {
        ++path_hits[1];
      } else if (want.size() == 1 &&
                 std::abs(want[0].predicted_iops - amount) <=
                     p.tolerance * amount) {
        ++path_hits[0];
      } else {
        ++path_hits[2];
      }
    }
  }
  EXPECT_GT(path_hits[0], 0);
  EXPECT_GT(path_hits[1], 0);
  EXPECT_GT(path_hits[2], 0);
}

}  // namespace
}  // namespace lunule::core
