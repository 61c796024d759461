// Tests for the generality extension: IF-model re-balancing on a
// hash-based metadata service (Lunule's hottest-shard selection rule).
#include "core/lunule_balancer.h"

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "sim/scenario.h"

namespace lunule::core {
namespace {

class HashRebalancerTest : public ::testing::Test {
 protected:
  HashRebalancerTest() {
    dirs = fs::build_private_dirs(tree, "w", 12, 64);
    cp.n_mds = 4;
    cp.mds_capacity_iops = 1000.0;
    cp.epoch_ticks = 10;
  }

  /// Lunule-Hash's parameters, as sim::make_balancer derives them.
  [[nodiscard]] LunuleParams hash_params() const {
    LunuleParams p = LunuleParams::for_cluster(cp);
    p.selection = SelectionRule::kHottestShard;
    p.min_pipeline_fraction = 0.0;
    return p;
  }

  /// Marks a directory's frag as having served `iops` in the last epoch.
  /// Catches the frag up to the stats clock first so the hand-poked sample
  /// stays the newest window entry when a reader advances the frag, and
  /// marks the directory touched, since the poke bypasses the recorder.
  void set_observed_load(mds::MdsCluster& cluster, DirId d, double iops) {
    fs::FragStats& f = tree.frag(d, 0);
    tree.advance_frag_stats(f);
    f.windows.push({.visits = static_cast<std::uint32_t>(iops * 10.0)}, 0.0);
    cluster.recorder().touch(d);
  }

  fs::NamespaceTree tree;
  mds::ClusterParams cp;
  std::vector<DirId> dirs;
};

TEST_F(HashRebalancerTest, SetupPinsLikeDirHash) {
  mds::MdsCluster cluster(tree, cp);
  LunuleBalancer hash(hash_params());
  hash.setup(cluster);
  // Every leaf unit ends up pinned; placement covers multiple MDSs.
  std::set<MdsId> owners;
  for (const DirId d : dirs) owners.insert(tree.auth_of(d));
  EXPECT_GT(owners.size(), 1u);
}

TEST_F(HashRebalancerTest, QuietBelowIfThreshold) {
  mds::MdsCluster cluster(tree, cp);
  LunuleBalancer hash(hash_params());
  hash.setup(cluster);
  hash.on_epoch(cluster, std::vector<Load>{500, 490, 505, 495});
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
  EXPECT_LT(hash.last_if(), 0.05);
}

TEST_F(HashRebalancerTest, RepinsHotShardsWhenSkewed) {
  mds::MdsCluster cluster(tree, cp);
  LunuleBalancer hash(hash_params());
  hash.setup(cluster);
  // Warm load history so forecasts exist.
  for (int e = 0; e < 4; ++e) cluster.close_epoch();
  // Give every dir owned by the hot MDS a moderate observed load.
  const std::vector<Load> loads{900, 50, 50, 50};
  for (const DirId d : dirs) {
    if (tree.auth_of(d) == 0) set_observed_load(cluster, d, 80.0);
  }
  hash.on_epoch(cluster, loads);
  EXPECT_GT(hash.last_if(), 0.05);
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_EQ(t.from, 0);
    EXPECT_NE(t.to, 0);
  }
}

TEST_F(HashRebalancerTest, SkipsShardsTooHotToFreeze) {
  mds::MdsCluster cluster(tree, cp);
  const LunuleParams p = hash_params();
  LunuleBalancer hash(p);
  hash.setup(cluster);
  // One shard far above the freeze-abort threshold, the rest idle.
  DirId hot = kNoDir;
  for (const DirId d : dirs) {
    if (tree.auth_of(d) == 0) {
      hot = d;
      break;
    }
  }
  ASSERT_NE(hot, kNoDir);
  for (int e = 0; e < 4; ++e) cluster.close_epoch();
  set_observed_load(cluster, hot, p.selector.hot_skip_iops * 4.0);
  hash.on_epoch(cluster, std::vector<Load>{900, 50, 50, 50});
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_NE(t.subtree.dir, hot);
  }
}

TEST_F(HashRebalancerTest, RespectsPipelineBudget) {
  mds::MdsCluster cluster(tree, cp);
  LunuleParams p = hash_params();
  p.selector.inode_cap = 10;  // smaller than any shard (65 inodes each)
  LunuleBalancer hash(p);
  hash.setup(cluster);
  for (const DirId d : dirs) {
    if (tree.auth_of(d) == 0) set_observed_load(cluster, d, 80.0);
  }
  for (int e = 0; e < 4; ++e) cluster.close_epoch();
  hash.on_epoch(cluster, std::vector<Load>{900, 50, 50, 50});
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
}

// Lunule-Hash plans whenever the migration pipeline has room: unlike
// subtree Lunule it keeps no floor of 10% free.  Built the way the
// simulator builds it, it must still re-pin when a queued export leaves
// room for one shard but under a tenth of the cap.
TEST_F(HashRebalancerTest, RepinsWithUnderTenPercentOfPipelineFree) {
  cp.migration.bandwidth_inodes_per_tick = 50.0;
  const auto cap = static_cast<std::uint64_t>(
      cp.migration.bandwidth_inodes_per_tick *
      static_cast<double>(cp.epoch_ticks) *
      cp.migration.max_inflight_per_exporter);  // 1,000 inodes
  const DirId bulk = fs::build_private_dirs(tree, "bulk", 1, 930).front();
  mds::MdsCluster cluster(tree, cp);
  const std::unique_ptr<balancer::Balancer> hash =
      sim::make_balancer(sim::BalancerKind::kLunuleHash, cp);
  hash->setup(cluster);
  for (int e = 0; e < 4; ++e) cluster.close_epoch();
  ASSERT_TRUE(cluster.migration().submit(
      {.dir = bulk}, static_cast<MdsId>((tree.auth_of(bulk) + 1) % 4)));
  const std::uint64_t free = cap - cluster.migration().backlog_inodes();
  ASSERT_LT(free * 10, cap);
  ASSERT_GE(free, 65u);  // one shard fits
  for (const DirId d : dirs) {
    if (tree.auth_of(d) == 0) set_observed_load(cluster, d, 80.0);
  }
  const std::uint64_t before = cluster.migration().migrations_submitted();
  hash->on_epoch(cluster, std::vector<Load>{900, 50, 50, 50});
  EXPECT_GT(cluster.migration().migrations_submitted(), before);
}

// Lunule-Hash holds the whole pipeline, not each exporter's part of it,
// within the cap: every exporter's re-pins draw on one inode budget.
TEST_F(HashRebalancerTest, ExportersShareOneInodeBudget) {
  mds::MdsCluster cluster(tree, cp);
  LunuleParams p = hash_params();
  p.selector.inode_cap = 130;  // two 65-inode shards
  LunuleBalancer hash(p);
  hash.setup(cluster);
  for (int e = 0; e < 4; ++e) cluster.close_epoch();
  for (const DirId d : dirs) {
    if (tree.auth_of(d) <= 1) set_observed_load(cluster, d, 80.0);
  }
  hash.on_epoch(cluster, std::vector<Load>{900, 900, 50, 50});
  ASSERT_EQ(hash.last_plan().exporters.size(), 2u);
  std::uint64_t inodes = 0;
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    inodes += t.inodes;
  }
  EXPECT_EQ(inodes, 130u);
}

}  // namespace
}  // namespace lunule::core
