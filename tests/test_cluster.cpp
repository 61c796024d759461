// Tests for the MDS cluster: routing, saturation, epochs, expansion.
#include "mds/cluster.h"

#include <gtest/gtest.h>

#include "fs/builder.h"

namespace lunule::mds {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    dirs = fs::build_private_dirs(tree, "w", 4, 16);
    params.n_mds = 3;
    params.mds_capacity_iops = 10.0;
    params.epoch_ticks = 2;
  }

  fs::NamespaceTree tree;
  ClusterParams params;
  std::vector<DirId> dirs;
};

TEST_F(ClusterTest, ServesOnAuthoritativeMds) {
  MdsCluster cluster(tree, params);
  tree.set_auth(dirs[1], 2);
  cluster.begin_tick(0);
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), ServeResult::kServed);
  EXPECT_EQ(cluster.try_serve(dirs[1], 0), ServeResult::kServed);
  EXPECT_EQ(cluster.server(0).served_in_open_epoch(), 1u);
  EXPECT_EQ(cluster.server(2).served_in_open_epoch(), 1u);
}

TEST_F(ClusterTest, SaturationStopsService) {
  MdsCluster cluster(tree, params);
  cluster.begin_tick(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cluster.try_serve(dirs[0], 0), ServeResult::kServed);
  }
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), ServeResult::kSaturated);
}

TEST_F(ClusterTest, CreateRoutesAndGrowsDirectory) {
  MdsCluster cluster(tree, params);
  tree.set_auth(dirs[2], 1);
  cluster.begin_tick(0);
  EXPECT_EQ(cluster.try_create(dirs[2]), ServeResult::kServed);
  EXPECT_EQ(tree.dir(dirs[2]).file_count(), 17u);
  EXPECT_EQ(cluster.server(1).served_in_open_epoch(), 1u);
}

TEST_F(ClusterTest, FrozenSubtreeRejectsService) {
  params.migration.bandwidth_inodes_per_tick = 1.0;
  params.migration.freeze_fraction = 0.99;
  MdsCluster cluster(tree, params);
  ASSERT_TRUE(cluster.migration().submit({.dir = dirs[0]}, 1));
  cluster.begin_tick(0);
  cluster.end_tick();  // starts streaming; freeze covers nearly all of it
  cluster.begin_tick(1);
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), ServeResult::kFrozen);
  EXPECT_EQ(cluster.try_serve(dirs[1], 0), ServeResult::kServed);
}

TEST_F(ClusterTest, MigrationPenaltyShrinksCapacity) {
  params.migration.bandwidth_inodes_per_tick = 1.0;  // long transfer
  params.migration.capacity_penalty = 0.5;
  MdsCluster cluster(tree, params);
  ASSERT_TRUE(cluster.migration().submit({.dir = dirs[0]}, 1));
  cluster.begin_tick(0);
  cluster.end_tick();  // activate
  cluster.begin_tick(1);
  int served = 0;
  while (cluster.try_serve(dirs[1], 0) == ServeResult::kServed) ++served;
  EXPECT_EQ(served, 5);  // half of capacity 10
}

TEST_F(ClusterTest, EpochCloseReportsLoads) {
  MdsCluster cluster(tree, params);
  cluster.begin_tick(0);
  for (int i = 0; i < 6; ++i) cluster.try_serve(dirs[0], 0);
  cluster.end_tick();
  cluster.begin_tick(1);
  for (int i = 0; i < 4; ++i) cluster.try_serve(dirs[0], 1);
  cluster.end_tick();
  const auto loads = cluster.close_epoch();
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_DOUBLE_EQ(loads[0], 5.0);  // 10 ops over 2-second epoch
  EXPECT_DOUBLE_EQ(loads[1], 0.0);
  EXPECT_EQ(cluster.epoch(), 1);
}

TEST_F(ClusterTest, AddServerExpandsCluster) {
  MdsCluster cluster(tree, params);
  EXPECT_EQ(cluster.size(), 3u);
  const MdsId id = cluster.add_server();
  EXPECT_EQ(id, 3);
  EXPECT_EQ(cluster.size(), 4u);
  tree.set_auth(dirs[0], id);
  cluster.begin_tick(0);
  EXPECT_EQ(cluster.try_serve(dirs[0], 0), ServeResult::kServed);
  EXPECT_EQ(cluster.server(id).served_in_open_epoch(), 1u);
}

TEST_F(ClusterTest, TotalsAggregateAcrossServers) {
  MdsCluster cluster(tree, params);
  tree.set_auth(dirs[1], 1);
  cluster.begin_tick(0);
  cluster.try_serve(dirs[0], 0);
  cluster.try_serve(dirs[1], 0);
  cluster.charge_forward(2);
  EXPECT_EQ(cluster.total_served(), 2u);
  EXPECT_EQ(cluster.total_forwards(), 1u);
}

}  // namespace
}  // namespace lunule::mds
