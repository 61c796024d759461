// Tests for the Lunule balancer's epoch workflow.
#include "core/lunule_balancer.h"

#include <gtest/gtest.h>

#include "fs/builder.h"

namespace lunule::core {
namespace {

class LunuleBalancerTest : public ::testing::Test {
 protected:
  LunuleBalancerTest() {
    dirs = fs::build_private_dirs(tree, "w", 10, 100);
    cp.n_mds = 5;
    cp.mds_capacity_iops = 1000.0;
    cp.epoch_ticks = 10;
  }

  /// Warms up a cluster with load history so fld forecasts exist.
  void warm_history(mds::MdsCluster& cluster) {
    for (int e = 0; e < 4; ++e) cluster.close_epoch();
  }

  /// Gives a directory a steady temporal load signal, spread over the full
  /// cutting window so the observed per-epoch rate equals `iops`.  The
  /// poke bypasses the access recorder, so mark the directory touched:
  /// only the recorder's active set reaches candidate collection.
  void set_temporal_load(mds::MdsCluster& cluster, DirId d, double iops,
                         double window_seconds) {
    fs::FragStats& f = tree.frag(d, 0);
    tree.advance_frag_stats(f);  // keep the poked samples newest on read
    const double epoch_seconds =
        window_seconds / static_cast<double>(fs::kCuttingWindows);
    const auto per_epoch = static_cast<std::uint32_t>(iops * epoch_seconds);
    for (std::size_t e = 0; e < fs::kCuttingWindows; ++e) {
      f.windows.push({.visits = per_epoch,
                      .file_visits = per_epoch,
                      .recurrent = per_epoch},
                     0.0);
    }
    f.heat = iops * window_seconds;
    cluster.recorder().touch(d);
  }

  fs::NamespaceTree tree;
  mds::ClusterParams cp;
  std::vector<DirId> dirs;
};

TEST_F(LunuleBalancerTest, ForClusterDerivesConsistentDefaults) {
  const LunuleParams p = LunuleParams::for_cluster(cp);
  EXPECT_DOUBLE_EQ(p.if_params.mds_capacity, 1000.0);
  EXPECT_DOUBLE_EQ(p.roles.epoch_capacity_cap, 900.0);
  EXPECT_EQ(p.selector.inode_cap,
            static_cast<std::uint64_t>(
                cp.migration.bandwidth_inodes_per_tick * 10 *
                cp.migration.max_inflight_per_exporter));
  EXPECT_DOUBLE_EQ(p.selector.window_seconds, 10.0 * fs::kCuttingWindows);
}

TEST_F(LunuleBalancerTest, BenignImbalanceTriggersNothing) {
  mds::MdsCluster cluster(tree, cp);
  warm_history(cluster);
  LunuleBalancer lunule(LunuleParams::for_cluster(cp));
  // Strong relative skew, tiny absolute load: urgency suppresses it
  // (Fig. 12b phase 1).
  const double ws = lunule.params().selector.window_seconds;
  set_temporal_load(cluster, dirs[0], 90.0, ws);
  lunule.on_epoch(cluster, std::vector<Load>{90, 10, 10, 10, 10});
  EXPECT_LT(lunule.last_if(), lunule.params().if_threshold);
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
}

TEST_F(LunuleBalancerTest, HarmfulImbalanceTriggersMigration) {
  mds::MdsCluster cluster(tree, cp);
  warm_history(cluster);
  LunuleBalancer lunule(LunuleParams::for_cluster(cp));
  const double ws = lunule.params().selector.window_seconds;
  for (const DirId d : dirs) set_temporal_load(cluster, d, 90.0, ws);
  lunule.on_epoch(cluster, std::vector<Load>{900, 10, 10, 10, 10});
  EXPECT_GT(lunule.last_if(), lunule.params().if_threshold);
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
  EXPECT_FALSE(lunule.last_plan().empty());
  // All exports leave the hot MDS.
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_EQ(t.from, 0);
  }
}

TEST_F(LunuleBalancerTest, LagAwarenessDefersWhileBacklogLarge) {
  mds::MdsCluster cluster(tree, cp);
  warm_history(cluster);
  LunuleParams p = LunuleParams::for_cluster(cp);
  p.selector.inode_cap = 100;  // makes any backlog look large
  LunuleBalancer lunule(p);
  // Pre-load the migration engine with a big pending export.
  ASSERT_TRUE(cluster.migration().submit({.dir = dirs[9]}, 3));
  const double ws = p.selector.window_seconds;
  for (const DirId d : dirs) set_temporal_load(cluster, d, 90.0, ws);
  const auto before = cluster.migration().migrations_submitted();
  lunule.on_epoch(cluster, std::vector<Load>{900, 10, 10, 10, 10});
  EXPECT_EQ(cluster.migration().migrations_submitted(), before);
  EXPECT_TRUE(lunule.last_plan().empty());
}

TEST_F(LunuleBalancerTest, LightVariantUsesHeatSelection) {
  mds::MdsCluster cluster(tree, cp);
  warm_history(cluster);
  LunuleParams p = LunuleParams::for_cluster(cp);
  p.selection = SelectionRule::kHeatShare;
  LunuleBalancer light(p);
  EXPECT_EQ(light.name(), "Lunule-Light");
  // Candidates with heat but zero migration index (visited out): the light
  // variant (heat-driven) still exports them — that is its known weakness.
  // Spread the heat so the estimates fit the per-importer amounts.
  for (const DirId dd : dirs) {
    tree.frag(dd, 0).heat = dd == dirs[0] ? 150.0 : 100.0;
    tree.frag(dd, 0).visited_files = tree.frag(dd, 0).file_count;
    cluster.recorder().touch(dd);
  }
  light.on_epoch(cluster, std::vector<Load>{900, 10, 10, 10, 10});
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
  EXPECT_EQ(cluster.migration().tasks()[0].subtree.dir, dirs[0]);
}

TEST_F(LunuleBalancerTest, FullVariantSkipsExhaustedSubtrees) {
  mds::MdsCluster cluster(tree, cp);
  warm_history(cluster);
  LunuleBalancer lunule(LunuleParams::for_cluster(cp));
  // Same setup as above: stale heat, zero mIndex, nothing else to pick.
  fs::Directory& d = tree.dir(dirs[0]);
  tree.frag(dirs[0], 0).heat = 1000.0;
  tree.frag(dirs[0], 0).visited_files = tree.frag(dirs[0], 0).file_count;
  cluster.recorder().touch(dirs[0]);
  for (FileIndex i = 0; i < d.file_count(); ++i) {
    d.file(i).last_access_epoch = 0;
  }
  lunule.on_epoch(cluster, std::vector<Load>{900, 10, 10, 10, 10});
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_NE(t.subtree.dir, dirs[0]);
  }
}

TEST_F(LunuleBalancerTest, MonitorAccumulatesTraffic) {
  mds::MdsCluster cluster(tree, cp);
  warm_history(cluster);
  LunuleBalancer lunule(LunuleParams::for_cluster(cp));
  lunule.on_epoch(cluster, std::vector<Load>{0, 0, 0, 0, 0});
  lunule.on_epoch(cluster, std::vector<Load>{0, 0, 0, 0, 0});
  EXPECT_EQ(lunule.monitor().epochs_collected(), 2u);
  EXPECT_GT(lunule.monitor().total_bytes(), 0u);
}

}  // namespace
}  // namespace lunule::core
