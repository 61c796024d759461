// Tests for the closed-loop client: rate limiting, blocking, forwards,
// data-path coupling, and job completion.
#include "workloads/client.h"

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "workloads/mdtest.h"
#include "workloads/scan.h"

namespace lunule::workloads {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    dirs = fs::build_private_dirs(tree, "w", 3, 100);
    cp.n_mds = 3;
    cp.mds_capacity_iops = 50.0;
    cp.epoch_ticks = 1;
  }

  std::unique_ptr<WorkloadProgram> scan_of(DirId d, std::uint32_t files) {
    return std::make_unique<ScanProgram>(
        std::vector<DirId>{d}, std::vector<std::uint32_t>{files},
        1.0 - 1e-9);
  }

  fs::NamespaceTree tree;
  mds::ClusterParams cp;
  std::vector<DirId> dirs;
};

TEST_F(ClientTest, RespectsIssueRate) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0}, scan_of(dirs[0], 100));
  cluster.begin_tick(0);
  EXPECT_EQ(client.run_tick(cluster, nullptr, 0), 10u);
}

TEST_F(ClientTest, BlocksOnSaturatedMds) {
  mds::MdsCluster cluster(tree, cp);
  Client a(0, {.max_ops_per_tick = 60.0}, scan_of(dirs[0], 100));
  Client b(1, {.max_ops_per_tick = 60.0}, scan_of(dirs[1], 100));
  cluster.begin_tick(0);
  const std::uint32_t served_a = a.run_tick(cluster, nullptr, 0);
  const std::uint32_t served_b = b.run_tick(cluster, nullptr, 0);
  // Both dirs resolve to MDS 0 (capacity 50): together they cannot exceed it.
  EXPECT_EQ(served_a + served_b, 50u);
  EXPECT_GT(served_a, 0u);
}

TEST_F(ClientTest, StartTickDelaysIssue) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0, .start_tick = 5},
                scan_of(dirs[0], 100));
  cluster.begin_tick(0);
  EXPECT_EQ(client.run_tick(cluster, nullptr, 0), 0u);
  EXPECT_FALSE(client.started());
  cluster.begin_tick(5);
  EXPECT_EQ(client.run_tick(cluster, nullptr, 5), 10u);
  EXPECT_TRUE(client.started());
}

TEST_F(ClientTest, CompletesAndRecordsTick) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 8.0}, scan_of(dirs[0], 20));
  Tick t = 0;
  while (!client.done() && t < 100) {
    cluster.begin_tick(t);
    client.run_tick(cluster, nullptr, t);
    cluster.end_tick();
    ++t;
  }
  EXPECT_TRUE(client.done());
  EXPECT_EQ(client.meta_ops_completed(), 20u);
  EXPECT_EQ(client.completion_tick(), 2);  // 8 + 8 + 4
  // A done client never serves again.
  cluster.begin_tick(t);
  EXPECT_EQ(client.run_tick(cluster, nullptr, t), 0u);
}

TEST_F(ClientTest, CountsForwardsAcrossAuthorityBoundaries) {
  tree.set_auth(dirs[1], 2);
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0}, scan_of(dirs[1], 100));
  cluster.begin_tick(0);
  client.run_tick(cluster, nullptr, 0);
  // First access: path / -> /w -> /w/client1 crosses 0 -> 2 once.
  EXPECT_EQ(client.forwards(), 1u);
  cluster.begin_tick(1);
  client.run_tick(cluster, nullptr, 1);
  // Cached afterwards: no new forwards.
  EXPECT_EQ(client.forwards(), 1u);
}

TEST_F(ClientTest, FragPinnedAwayCostsOneHopOnMissOnly) {
  tree.fragment_dir(dirs[0], 1);      // files alternate between two frags
  tree.set_frag_auth(dirs[0], 0, 2);  // even files live on MDS 2
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0}, scan_of(dirs[0], 100));
  cluster.begin_tick(0);
  client.run_tick(cluster, nullptr, 0);
  // The miss on file 0 walks / -> /w -> /w/client0 without crossing a
  // boundary, then takes one extra hop to its frag's MDS; later files hit
  // the directory-level location cache, whichever frag they are in.
  EXPECT_EQ(client.forwards(), 1u);
  cluster.begin_tick(1);
  client.run_tick(cluster, nullptr, 1);
  EXPECT_EQ(client.forwards(), 1u);
}

TEST_F(ClientTest, StaleCacheReforwardsAfterMigration) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 5.0}, scan_of(dirs[0], 100));
  cluster.begin_tick(0);
  client.run_tick(cluster, nullptr, 0);
  const std::uint64_t before = client.forwards();
  tree.set_auth(dirs[0], 1);  // migration invalidates the cached location
  cluster.begin_tick(1);
  client.run_tick(cluster, nullptr, 1);
  EXPECT_GT(client.forwards(), before);
}

TEST_F(ClientTest, DataPathStallsNextIssue) {
  mds::MdsCluster cluster(tree, cp);
  mds::DataPath data(2.0);  // only 2 data ops per tick
  auto prog = std::make_unique<ScanProgram>(
      std::vector<DirId>{dirs[0]}, std::vector<std::uint32_t>{100},
      0.5);  // one meta + one data per file
  Client client(0, {.max_ops_per_tick = 40.0}, std::move(prog));
  cluster.begin_tick(0);
  data.begin_tick();
  client.run_tick(cluster, &data, 0);
  // The data path throttles the closed loop to ~2 files per tick.
  EXPECT_LE(client.meta_ops_completed(), 3u);
  EXPECT_EQ(client.data_ops_completed(), 2u);
}

TEST_F(ClientTest, StallAccountingTracksBlockedTicks) {
  mds::MdsCluster cluster(tree, cp);  // capacity 50
  Client a(0, {.max_ops_per_tick = 50.0},
           std::make_unique<MdtestCreateProgram>(dirs[0], 0));
  Client b(1, {.max_ops_per_tick = 50.0},
           std::make_unique<MdtestCreateProgram>(dirs[1], 0));
  for (Tick t = 0; t < 10; ++t) {
    cluster.begin_tick(t);
    // Client `a` always runs first and drains the MDS; `b` starves.
    a.run_tick(cluster, nullptr, t);
    b.run_tick(cluster, nullptr, t);
    cluster.end_tick();
  }
  EXPECT_EQ(a.stalled_ticks(), 0u);
  EXPECT_EQ(b.stalled_ticks(), 10u);
  EXPECT_EQ(b.active_ticks(), 10u);
  EXPECT_DOUBLE_EQ(b.stall_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(a.stall_fraction(), 0.0);
}

TEST_F(ClientTest, CreateWorkloadGrowsDirectory) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0},
                std::make_unique<MdtestCreateProgram>(dirs[2], 30));
  for (Tick t = 0; t < 3; ++t) {
    cluster.begin_tick(t);
    client.run_tick(cluster, nullptr, t);
    cluster.end_tick();
  }
  EXPECT_EQ(tree.dir(dirs[2]).file_count(), 130u);  // 100 + 30 creates
  EXPECT_TRUE(client.done());
}

}  // namespace
}  // namespace lunule::workloads
