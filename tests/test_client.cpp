// Tests for the closed-loop client: rate limiting, blocking, forwards,
// dentry leases and the location cache behind them, data-path coupling,
// and job completion.
#include "workloads/client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "fs/builder.h"
#include "workloads/location_cache.h"
#include "workloads/mdtest.h"
#include "workloads/scan.h"
#include "workloads/tenant_mix.h"

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

TEST_F(ClientTest, LeaseExpiresAtExactTick) {
  tree.set_auth(dirs[1], 2);
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 1.0, .lease_ticks = 5},
                scan_of(dirs[1], 100));
  // Resolved (one forward, 0 -> 2) at tick 0: the lease covers ticks 0-4.
  for (Tick t = 0; t < 5; ++t) {
    cluster.begin_tick(t);
    client.run_tick(cluster, nullptr, t);
    EXPECT_EQ(client.forwards(), 1u) << "tick " << t;
  }
  // At resolve + lease_ticks the location is no longer trusted.
  cluster.begin_tick(5);
  client.run_tick(cluster, nullptr, 5);
  EXPECT_EQ(client.forwards(), 2u);
  // The re-walk leased it again, through tick 9.
  cluster.begin_tick(9);
  client.run_tick(cluster, nullptr, 9);
  EXPECT_EQ(client.forwards(), 2u);
  cluster.begin_tick(10);
  client.run_tick(cluster, nullptr, 10);
  EXPECT_EQ(client.forwards(), 3u);
}

TEST_F(ClientTest, DeepPathChargesOneForwardPerBoundary) {
  // A 40-level chain (deeper than any synthetic namespace, but a replayed
  // log can name any depth) with authority boundaries right below the root
  // and at level 25.
  DirId leaf = tree.root();
  for (int level = 1; level <= 40; ++level) {
    leaf = tree.add_dir(leaf, "l" + std::to_string(level));
    if (level == 1) tree.set_auth(leaf, 1);
    if (level == 25) tree.set_auth(leaf, 2);
  }
  tree.add_files(leaf, 100);
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0}, scan_of(leaf, 100));
  cluster.begin_tick(0);
  client.run_tick(cluster, nullptr, 0);
  // The cold walk bounces off MDS 0 (at level 1) and MDS 1 (at level 25).
  EXPECT_EQ(client.forwards(), 2u);
  EXPECT_EQ(cluster.server(0).total_forwards(), 1u);
  EXPECT_EQ(cluster.server(1).total_forwards(), 1u);
  EXPECT_EQ(cluster.server(2).total_forwards(), 0u);
  EXPECT_EQ(client.meta_ops_completed(), 8u);  // 10 budget - 2 forwards
  // Within the lease the location is cached: no further forwards.
  cluster.begin_tick(1);
  client.run_tick(cluster, nullptr, 1);
  EXPECT_EQ(client.forwards(), 2u);
  EXPECT_EQ(client.meta_ops_completed(), 18u);
}

TEST(ClientFootprint, LocationSlotsFollowTheLeaseWindow) {
  // A tenant-style client on a Zipf stream over 100,000 directories.  Its
  // location cache must stay within the table's load rule of the leases
  // live at once (it grows only while live + 1 > capacity / 4, so the
  // capacity stays below 8 x the most leases live at once), far below one
  // slot per directory.
  fs::NamespaceTree big;
  auto dirs = std::make_shared<const std::vector<DirId>>(
      fs::build_private_dirs(big, "t", 100000, 8));
  for (std::size_t i = 0; i < dirs->size(); i += 101) {
    big.set_auth((*dirs)[i], static_cast<MdsId>(1 + i % 3));
  }
  mds::ClusterParams cp;
  cp.n_mds = 4;
  cp.mds_capacity_iops = 1e9;
  mds::MdsCluster cluster(big, cp);
  Client client(0, {.max_ops_per_tick = 150.0, .lease_ticks = 30},
                std::make_unique<TenantMixProgram>(
                    dirs, 8, 1'000'000, 0.05,
                    std::make_shared<ZipfSampler>(dirs->size(), 1.0),
                    Rng(11)));
  std::size_t most_live = 0;
  for (Tick t = 0; t < 200; ++t) {
    cluster.begin_tick(t);
    client.run_tick(cluster, nullptr, t);
    cluster.end_tick();
    most_live = std::max(most_live, client.locations().live(t));
  }
  const LocationCache& cache = client.locations();
  EXPECT_GT(client.meta_ops_completed(), 25'000u);
  EXPECT_GT(most_live, 500u);  // the table did have to grow
  EXPECT_LE(cache.capacity(),
            std::max(LocationCache::kMinCapacity, 8 * most_live));
  EXPECT_LE(cache.size(), cache.capacity() / 2);
  EXPECT_LT(cache.capacity() * 10, big.dir_count());
}

TEST(LocationCache, LeaseEdgesAndAuthorityFlipBack) {
  LocationCache cache;
  EXPECT_FALSE(cache.fresh(7, 0, 0));
  cache.remember(7, 1, /*until=*/12, /*now=*/2);
  EXPECT_TRUE(cache.fresh(7, 1, 11));   // now == until - 1: live
  EXPECT_FALSE(cache.fresh(7, 1, 12));  // now == until: expired
  EXPECT_FALSE(cache.fresh(7, 2, 5));   // the directory moved 1 -> 2 ...
  EXPECT_TRUE(cache.fresh(7, 1, 6));    // ... and back within the lease
  cache.remember(7, 2, 20, 12);         // overwrite in place
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.fresh(7, 1, 13));
  EXPECT_TRUE(cache.fresh(7, 2, 13));
}

TEST(LocationCache, MatchesDenseModel) {
  // Client-like use against a dense {auth, lease_until} array: directories
  // drawn with Zipf skew, each lookup against the directory's current
  // authority (1-4 values, occasionally migrating), a miss leasing it
  // again.  Time advances by 0-2 ticks per step, mostly 0 (a tick carries
  // many ops); the lease changes every 50,000 steps.
  constexpr std::size_t kDirs = 100'000;
  constexpr int kSteps = 1'000'000;
  struct Lease {
    MdsId auth = kNoMds;
    Tick until = 0;
    std::uint32_t moves = 0;  // truth changes seen when leased
  };
  std::vector<Lease> dense(kDirs);
  std::vector<MdsId> truth(kDirs, 0);
  std::vector<std::uint32_t> moves(kDirs, 0);
  const ZipfSampler skew(kDirs, 0.9);
  Rng rng(2024);
  const auto pick = [&] {
    return static_cast<DirId>(mix64(skew.sample(rng)) % kDirs);
  };
  const auto model = [&](DirId d, MdsId a, Tick now) {
    return dense[d].auth == a && now < dense[d].until;
  };

  LocationCache cache;
  Tick now = 0;
  Tick lease = 1;
  std::uint64_t auths = 1;
  int edge_hits = 0, edge_misses = 0, flip_back_hits = 0;
  int rebuilds = 0, growths = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (step % 50'000 == 0) {
      lease = 1 + static_cast<Tick>(rng.next_below(40));
      auths = 1 + rng.next_below(4);
    }
    const std::uint64_t r = rng.next_below(256);
    now += r < 250 ? 0 : (r < 253 ? 1 : 2);
    if (rng.next_below(16) == 0) {  // a migration
      const DirId m = pick();
      const auto to = static_cast<MdsId>(rng.next_below(auths));
      if (to != truth[m]) {
        truth[m] = to;
        ++moves[m];
      }
    }

    const DirId d = pick();
    const MdsId a = truth[d];
    const bool hit = model(d, a, now);
    ASSERT_EQ(cache.fresh(d, a, now), hit) << "step " << step;
    if (dense[d].auth == a && now == dense[d].until - 1) ++edge_hits;
    if (dense[d].auth == a && now == dense[d].until) ++edge_misses;
    if (hit && dense[d].moves != moves[d]) ++flip_back_hits;
    if (!hit) {
      const std::size_t size = cache.size();
      const std::size_t cap = cache.capacity();
      cache.remember(d, a, now + lease, now);
      dense[d] = {a, now + lease, moves[d]};
      // A rebuild either grew the table or dropped expired slots; one
      // that dropped exactly one looks like an overwrite and goes uncounted.
      if (cache.capacity() > cap) {
        ++growths;
      } else if (cache.size() < size) {
        ++rebuilds;
      }
    }
    ASSERT_TRUE(cache.fresh(d, a, now)) << "step " << step;
    // Any other directory, against its current and another authority.
    const auto e = static_cast<DirId>(rng.next_below(kDirs));
    const auto other = static_cast<MdsId>(rng.next_below(4));
    ASSERT_EQ(cache.fresh(e, truth[e], now), model(e, truth[e], now))
        << "step " << step;
    ASSERT_EQ(cache.fresh(e, other, now), model(e, other, now))
        << "step " << step;
  }
  EXPECT_GT(edge_hits, 100);
  EXPECT_GT(edge_misses, 100);
  EXPECT_GT(flip_back_hits, 100);
  EXPECT_GT(rebuilds, 100);
  EXPECT_GE(growths, 4);
  EXPECT_LE(cache.size(), cache.capacity() / 2);
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
