// Tests for the baseline balancers: Vanilla, Mantle/GreedySpill, Dir-Hash,
// and the shared candidate scanner.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "balancer/candidates.h"
#include "balancer/dir_hash.h"
#include "balancer/mantle.h"
#include "balancer/vanilla.h"
#include "common/stats.h"
#include "fs/builder.h"
#include "mds/cluster.h"

namespace lunule::balancer {
namespace {

class BalancerTest : public ::testing::Test {
 protected:
  BalancerTest() {
    dirs = fs::build_private_dirs(tree, "w", 10, 50);
    params.n_mds = 5;
    params.mds_capacity_iops = 100.0;
    params.epoch_ticks = 1;
  }

  /// Gives a directory some heat (vanilla's selection signal).  The poke
  /// bypasses the access recorder, so mark the directory touched: only
  /// the recorder's active set reaches candidate collection.
  void set_heat(mds::MdsCluster& cluster, DirId d, double heat) {
    tree.frag(d, 0).heat = heat;
    cluster.recorder().touch(d);
  }

  fs::NamespaceTree tree;
  mds::ClusterParams params;
  std::vector<DirId> dirs;
};

TEST_F(BalancerTest, CandidatesEnumerateLeafUnitsOfOwner) {
  tree.set_auth(dirs[3], 2);
  const auto mine = collect_candidates(tree, 0);
  EXPECT_EQ(mine.size(), 9u);  // ten dirs minus the one moved to MDS 2
  const auto theirs = collect_candidates(tree, 2);
  ASSERT_EQ(theirs.size(), 1u);
  EXPECT_EQ(theirs[0].ref.dir, dirs[3]);
  EXPECT_EQ(theirs[0].inodes, 51u);
}

TEST_F(BalancerTest, CandidatesPerFragWhenFragmented) {
  tree.fragment_dir(dirs[0], 2);
  // Every unit is on rank 0: dirs[0] contributes 4 frag units, the other
  // 9 one unit each.
  const auto all = collect_candidates(tree, 0);
  EXPECT_EQ(all.size(), 13u);
}

TEST_F(BalancerTest, CandidateAggregatesWindowSums) {
  fs::FragStats& f = tree.frag(dirs[1], 0);
  f.windows.push({.visits = 10, .first_visits = 5}, 2.5);
  f.windows.push({.visits = 20}, 0.0);
  const Candidate c = make_candidate(tree, {.dir = dirs[1]});
  EXPECT_EQ(c.windows.visits, 30u);
  EXPECT_EQ(c.windows.first_visits, 5u);
  EXPECT_DOUBLE_EQ(c.windows.sibling_credit, 2.5);
  EXPECT_EQ(c.visits_last_epoch, 20u);
  EXPECT_EQ(c.unvisited, 50u);
}

TEST_F(BalancerTest, VanillaNoActionBelowRelativeTrigger) {
  mds::MdsCluster cluster(tree, params);
  VanillaBalancer vanilla;
  // Max load is 1.3x the average: below the 1.5x trigger.
  const std::vector<Load> loads{130, 90, 95, 90, 95};
  set_heat(cluster, dirs[0], 100.0);
  vanilla.on_epoch(cluster, loads);
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
}

TEST_F(BalancerTest, VanillaExportsHotSubtreesWhenTriggered) {
  mds::MdsCluster cluster(tree, params);
  VanillaBalancer vanilla;
  for (const DirId d : dirs) set_heat(cluster, d, 10.0);
  const std::vector<Load> loads{500, 0, 0, 0, 0};
  vanilla.on_epoch(cluster, loads);
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
  // Targets must be the under-loaded MDSs, never the exporter itself.
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_EQ(t.from, 0);
    EXPECT_NE(t.to, 0);
  }
}

TEST_F(BalancerTest, VanillaSelectsByHeatDescending) {
  mds::MdsCluster cluster(tree, params);
  VanillaParams vp;
  vp.max_exports_per_epoch = 1;
  VanillaBalancer vanilla(vp);
  // All candidates fit into an importer's room; the hottest goes first.
  for (const DirId d : dirs) set_heat(cluster, d, 10.0);
  set_heat(cluster, dirs[5], 11.0);
  const std::vector<Load> loads{300, 0, 0, 0, 0};
  vanilla.on_epoch(cluster, loads);
  ASSERT_EQ(cluster.migration().tasks().size(), 1u);
  EXPECT_EQ(cluster.migration().tasks()[0].subtree.dir, dirs[5]);
}

TEST_F(BalancerTest, VanillaCannotExportSubtreeHotterThanImporterRoom) {
  // CephFS's find_exports descends into subtrees whose load exceeds the
  // target amount; a leaf directory of plain files is then unexportable —
  // the scan-front pathology of Section 2.2.
  mds::MdsCluster cluster(tree, params);
  VanillaBalancer vanilla;
  // One dir carries essentially all the load.
  set_heat(cluster, dirs[0], 1000.0);
  const std::vector<Load> loads{500, 0, 0, 0, 0};
  vanilla.on_epoch(cluster, loads);
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
}

TEST_F(BalancerTest, VanillaTriggersAtModerateAbsoluteLoad) {
  // Inefficiency #1 (second half): a relatively skewed but absolutely tiny
  // load still triggers vanilla migration.
  mds::MdsCluster cluster(tree, params);
  VanillaBalancer vanilla;
  for (const DirId d : dirs) set_heat(cluster, d, 0.5);
  const std::vector<Load> loads{10, 2, 2, 2, 2};
  vanilla.on_epoch(cluster, loads);
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
}

TEST_F(BalancerTest, GreedySpillFiresOnlyWithIdleNeighbour) {
  mds::MdsCluster cluster(tree, params);
  auto greedy = make_greedy_spill();
  for (const DirId d : dirs) set_heat(cluster, d, 10.0);
  // Neighbour (rank 1) busy: no spill.
  greedy->on_epoch(cluster, std::vector<Load>{200, 150, 150, 150, 150});
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
  // Neighbour idle: spill half of rank 0's load to rank 1.
  greedy->on_epoch(cluster, std::vector<Load>{200, 0, 150, 150, 150});
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_EQ(t.from, 0);
    EXPECT_EQ(t.to, 1);
  }
}

TEST_F(BalancerTest, MantleCallbacksDriveCustomPolicy) {
  mds::MdsCluster cluster(tree, params);
  int when_calls = 0;
  MantleBalancer custom(
      "custom",
      [&](const MantleContext&) {
        ++when_calls;
        return false;  // never migrate
      },
      [&](const MantleContext&) { return std::vector<SpillTarget>{}; });
  custom.on_epoch(cluster, std::vector<Load>{100, 0, 0, 0, 0});
  EXPECT_EQ(when_calls, 1);
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
  EXPECT_EQ(custom.name(), "custom");
}

TEST_F(BalancerTest, DirHashPinsEverythingEvenly) {
  mds::MdsCluster cluster(tree, params);
  DirHashBalancer hash;
  hash.setup(cluster);
  // Every leaf unit is now explicitly pinned (no unit resolves through an
  // unpinned chain to MDS 0 by default).
  const auto census = tree.inodes_per_mds(5);
  std::uint64_t total = 0;
  std::vector<double> as_double;
  for (const std::uint64_t c : census) {
    total += c;
    as_double.push_back(static_cast<double>(c));
  }
  EXPECT_EQ(total, tree.total_inodes());
  // Static hashing spreads inodes evenly: low dispersion.
  EXPECT_LT(coefficient_of_variation(as_double), 0.6);
  // And it never migrates at runtime.
  hash.on_epoch(cluster, std::vector<Load>{500, 0, 0, 0, 0});
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
}

TEST_F(BalancerTest, DirHashFragmentsHugeDirectories) {
  const DirId big = tree.add_dir(tree.root(), "big");
  tree.add_files(big, 10000);
  mds::MdsCluster cluster(tree, params);
  DirHashParams hp;
  hp.fragment_threshold = 4096;
  hp.fragment_bits = 3;
  DirHashBalancer hash(hp);
  hash.setup(cluster);
  EXPECT_TRUE(tree.fragmented(big));
  // Its 8 frags must not all land on one MDS.
  std::set<MdsId> owners;
  for (FragId f = 0; f < 8; ++f) {
    owners.insert(tree.auth_of_subtree({.dir = big, .frag = f}));
  }
  EXPECT_GT(owners.size(), 1u);
}

TEST_F(BalancerTest, DirHashIsDeterministic) {
  fs::NamespaceTree t2;
  fs::build_private_dirs(t2, "w", 10, 50);
  mds::MdsCluster c1(tree, params);
  mds::MdsCluster c2(t2, params);
  DirHashBalancer h1;
  DirHashBalancer h2;
  h1.setup(c1);
  h2.setup(c2);
  EXPECT_EQ(tree.inodes_per_mds(5), t2.inodes_per_mds(5));
}

// walk_in_order must visit exactly the std::sort order of its strict total
// order and stop where the visitor stops: within the heap pops, at the
// switch to sorting the rest, past it, at the last unit or not at all.
// Heats repeat, so most places are decided by the hashed tie rank.
TEST(WalkInOrder, VisitsInSortOrderAndStopsWhereTold) {
  Rng rng(17);
  std::vector<Candidate> cands(1000);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    cands[i].ref = {.dir = static_cast<DirId>(3 * i + 1),
                    .frag = static_cast<FragId>(rng.next_below(3)) - 1};
    cands[i].heat = static_cast<double>(rng.next_below(8));
    cands[i].visits_last_epoch = rng.next_below(5);
  }
  const auto check = [&](auto before) {
    std::vector<Candidate> sorted = cands;
    std::sort(sorted.begin(), sorted.end(), before);
    for (const std::size_t stop : {1, 2, 16, 256, 257, 999, 1000, 1001}) {
      SCOPED_TRACE("stop = " + std::to_string(stop));
      std::vector<Candidate> walked = cands;
      std::vector<fs::SubtreeRef> seen;
      walk_in_order(walked, before, [&](const Candidate& c) {
        seen.push_back(c.ref);
        return seen.size() < stop;
      });
      ASSERT_EQ(seen.size(), std::min(stop, cands.size()));
      for (std::size_t k = 0; k < seen.size(); ++k) {
        ASSERT_EQ(seen[k], sorted[k].ref) << "visit " << k;
      }
    }
  };
  check(heat_order);
  check(last_epoch_visits_order);
}

}  // namespace
}  // namespace lunule::balancer
