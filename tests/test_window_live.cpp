// Tests for the access recorder's window-live set: the active directories
// whose cutting windows can still hold a non-zero entry, plus every
// directory touched in the open epoch.  Lunule's mIndex and hottest-shard
// rules collect from it instead of the whole active set, which also holds
// a heat-only tail that can never score under those rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "balancer/candidates.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "core/lunule_balancer.h"
#include "core/subtree_selector.h"
#include "mds/access_recorder.h"
#include "mds/cluster.h"

namespace lunule {
namespace {

/// `groups` x `per_group` sibling leaf directories of `files` files each
/// (sibling credits need siblings), every fifth group pinned to rank 1.
std::vector<DirId> build_groups(fs::NamespaceTree& tree, int groups,
                                int per_group, std::uint32_t files) {
  std::vector<DirId> leaves;
  for (int g = 0; g < groups; ++g) {
    const DirId group = tree.add_dir(tree.root(), "g" + std::to_string(g));
    if (g % 5 == 4) tree.set_auth(group, 1);
    for (int i = 0; i < per_group; ++i) {
      const DirId d = tree.add_dir(group, "d" + std::to_string(i));
      tree.add_files(d, files);
      leaves.push_back(d);
    }
  }
  return leaves;
}

/// True when `frag` holds a non-zero open accumulator or, rolled forward to
/// the clock on a copy, a non-zero window sum.
bool carries_window(const fs::FragStats& frag, const fs::NamespaceTree& tree) {
  if (frag.open != fs::EpochCounts{} || frag.sibling_credit_epoch != 0.0) {
    return true;
  }
  fs::FragStats copy = frag;
  copy.advance_to(tree.stats_clock(), tree.heat_decay());
  return copy.windows.sums() != fs::WindowSums{};
}

/// The set's contract: a strictly ascending prefix of `prefix` entries
/// (its size at the last close), then directories touched in the open
/// epoch; no duplicates; inside active_dirs(); membership agrees with
/// is_window_live(); and every directory with a non-zero window sum or open
/// accumulator is a member.
void expect_set_contract(const mds::AccessRecorder& rec,
                         const fs::NamespaceTree& tree, std::size_t prefix) {
  const std::vector<DirId>& live = rec.window_live_dirs();
  ASSERT_LE(prefix, live.size());
  std::vector<std::uint8_t> member(tree.dir_count(), 0);
  for (std::size_t k = 0; k < live.size(); ++k) {
    const DirId d = live[k];
    ASSERT_LT(d, tree.dir_count());
    ASSERT_EQ(member[d], 0) << "dir " << d << " listed twice";
    member[d] = 1;
    if (k > 0 && k < prefix) {
      ASSERT_LT(live[k - 1], d) << "prefix not ascending at " << k;
    }
    if (k >= prefix) {
      ASSERT_EQ(rec.touched_epoch(d), tree.stats_clock())
          << "tail entry " << d << " was not touched this epoch";
    }
    ASSERT_TRUE(rec.is_active(d)) << "dir " << d << " is not active";
  }
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    ASSERT_EQ(rec.is_window_live(d), member[d] != 0) << "dir " << d;
    if (member[d] != 0) continue;
    for (const fs::FragStats& frag : tree.frags(d)) {
      ASSERT_FALSE(carries_window(frag, tree))
          << "dir " << d << " carries a window but is not window-live";
    }
  }
}

TEST(WindowLive, SetContractHoldsAfterEveryTouchAndClose) {
  fs::NamespaceTree tree;
  const std::vector<DirId> leaves = build_groups(tree, 6, 110, 40);
  mds::RecorderParams params;
  params.sibling_credit_prob = 0.5;
  // Fast decay: heat outlives the windows by a few epochs, then whole
  // directories expire, so the heat-only tail both forms and drains.
  params.heat_decay = 0.5;
  mds::AccessRecorder rec(tree, params, Rng(7));
  // `rec` folds on a 3-worker pool; a serial twin fed the same stream must
  // end every close with the same sets and bounds.
  fs::NamespaceTree twin_tree;
  build_groups(twin_tree, 6, 110, 40);
  mds::AccessRecorder twin(twin_tree, params, Rng(7));
  WorkerPool pool(3);
  Rng rng(2024);

  std::size_t prefix = 0;
  std::size_t tail_joins = 0;
  std::size_t heat_only_closes = 0;
  std::size_t splits = 0;
  std::size_t pooled_folds = 0;
  const auto touched = [&] { expect_set_contract(rec, tree, prefix); };
  for (EpochId e = 0; e < 40; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const EpochId epoch = tree.stats_clock();
    // Dense epochs touch more than 512 directories (the pooled fold's
    // cutoff); idle stretches let directories age out.
    const double density = e % 9 < 2 ? 0.0 : (e % 3 == 0 ? 0.95 : 0.1);
    // Lane records: a rank stream's escrow, merged in one go.
    mds::RecorderLane lane;
    mds::RecorderLane twin_lane;
    for (const DirId d : leaves) {
      if (!rng.next_bool(density)) continue;
      const auto i = static_cast<FileIndex>(rng.next_below(40));
      rec.record(d, i, epoch, &lane);
      twin.record(d, i, epoch, &twin_lane);
    }
    rec.merge_lane(lane);
    twin.merge_lane(twin_lane);
    touched();
    // Serial records, creates and bare touches, one check each.
    const int singles = density > 0.0 ? 60 : 4;
    for (int s = 0; s < singles; ++s) {
      const DirId d = leaves[rng.next_below(leaves.size())];
      const std::uint64_t kind = rng.next_below(3);
      const bool was_live = rec.is_window_live(d);
      if (kind == 0) {
        const auto i = static_cast<FileIndex>(
            rng.next_below(tree.dir(d).file_count()));
        rec.record(d, i, epoch);
        twin.record(d, i, epoch);
      } else if (kind == 1) {
        const FileIndex i = tree.create_file(d);
        ASSERT_EQ(twin_tree.create_file(d), i);
        rec.record_create(d, i, epoch);
        twin.record_create(d, i, epoch);
      } else {
        rec.touch(d);
        twin.touch(d);
      }
      if (!was_live) ++tail_joins;
      touched();
    }
    std::size_t dirty = 0;
    for (DirId d = 0; d < tree.dir_count(); ++d) {
      if (rec.touched_epoch(d) == epoch) ++dirty;
    }
    if (dirty >= 512) ++pooled_folds;
    rec.close_epoch(&pool);
    twin.close_epoch();
    prefix = rec.window_live_dirs().size();
    expect_set_contract(rec, tree, prefix);
    ASSERT_EQ(rec.window_live_dirs(), twin.window_live_dirs());
    ASSERT_EQ(rec.active_dirs(), twin.active_dirs());
    for (DirId d = 0; d < tree.dir_count(); ++d) {
      ASSERT_EQ(rec.window_dead_epoch(d), twin.window_dead_epoch(d));
      ASSERT_EQ(rec.stats_dead_epoch(d), twin.stats_dead_epoch(d));
    }
    if (rec.active_dirs().size() > rec.window_live_dirs().size()) {
      ++heat_only_closes;
    }
    // Splits land between epochs, where the balancer's selector makes
    // them: they scale windows down, never up.
    for (int s = 0; s < 3; ++s) {
      const DirId d = leaves[rng.next_below(leaves.size())];
      if (tree.frag_bits(d) >= 3) continue;
      const auto bits = static_cast<std::uint8_t>(tree.frag_bits(d) + 1);
      tree.fragment_dir(d, bits);
      twin_tree.fragment_dir(d, bits);
      ++splits;
    }
    expect_set_contract(rec, tree, prefix);
  }
  EXPECT_GT(tail_joins, 0u);
  EXPECT_GT(heat_only_closes, 0u);
  EXPECT_GT(splits, 0u);
  EXPECT_GT(pooled_folds, 0u);
}

// -- Selection equivalence ---------------------------------------------------

/// One cluster driven through a fixed access history: a scan over every
/// leaf, then a hot subset only, so the rest of the namespace keeps its
/// heat (active) after its windows drain (not window-live).
struct World {
  World() : cluster(tree, cluster_params()) {
    leaves = build_groups(tree, 10, 40, 64);
    mds::AccessRecorder& rec = cluster.recorder();
    Rng rng(31);
    for (int e = 0; e < 14; ++e) {
      const EpochId epoch = tree.stats_clock();
      for (std::size_t k = 0; k < leaves.size(); ++k) {
        const bool hot = k % 5 == 0;
        if (e >= 3 && !hot) continue;
        const DirId d = leaves[k];
        // Hot directories mix recurrent reads with a forward scan, the
        // rest scan a prefix once; every fourth hot one also creates.
        const std::uint64_t ops = hot ? 4 + rng.next_below(120) : 6;
        for (std::uint64_t op = 0; op < ops; ++op) {
          const auto i = static_cast<FileIndex>(
              hot ? rng.next_below(tree.dir(d).file_count())
                  : (e * 6 + op) % 64);
          rec.record(d, i, epoch);
        }
        if (hot && k % 4 == 0) {
          rec.record_create(d, tree.create_file(d), epoch);
        }
      }
      cluster.close_epoch();
    }
  }

  static mds::ClusterParams cluster_params() {
    mds::ClusterParams cp;
    cp.n_mds = 4;
    cp.mds_capacity_iops = 1000.0;
    return cp;
  }

  fs::NamespaceTree tree;
  mds::MdsCluster cluster;
  std::vector<DirId> leaves;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_selection(const core::Selection& a,
                           const core::Selection& b) {
  EXPECT_EQ(a.ref, b.ref);
  EXPECT_EQ(a.inodes, b.inodes);
  EXPECT_TRUE(same_bits(a.predicted_iops, b.predicted_iops));
  EXPECT_TRUE(same_bits(a.index.alpha, b.index.alpha));
  EXPECT_TRUE(same_bits(a.index.beta, b.index.beta));
  EXPECT_TRUE(same_bits(a.index.l_t, b.index.l_t));
  EXPECT_TRUE(same_bits(a.index.l_s, b.index.l_s));
  EXPECT_TRUE(same_bits(a.index.mindex, b.index.mindex));
}

void expect_same_candidate(const balancer::Candidate& a,
                           const balancer::Candidate& b) {
  EXPECT_EQ(a.ref, b.ref);
  EXPECT_EQ(a.auth, b.auth);
  EXPECT_EQ(a.inodes, b.inodes);
  EXPECT_TRUE(same_bits(a.heat, b.heat));
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_TRUE(same_bits(a.windows.sibling_credit, b.windows.sibling_credit));
  EXPECT_EQ(a.visits_last_epoch, b.visits_last_epoch);
  EXPECT_EQ(a.unvisited, b.unvisited);
}

/// The hottest-shard rule's input: `owner`'s units ordered by last-epoch
/// visits, cut at the first idle one, where the rule's walk stops.
std::vector<balancer::Candidate> busy_shards(mds::MdsCluster& cluster,
                                             MdsId owner,
                                             const std::vector<DirId>* dirs) {
  std::vector<balancer::Candidate> cands =
      balancer::collect_candidates(cluster.tree(), owner, dirs);
  std::sort(cands.begin(), cands.end(), balancer::last_epoch_visits_order);
  const auto idle = std::find_if(
      cands.begin(), cands.end(),
      [](const balancer::Candidate& c) { return c.visits_last_epoch == 0; });
  cands.erase(idle, cands.end());
  return cands;
}

TEST(WindowLive, SelectionsMatchTheActiveSetOnEveryPath) {
  World live;  // selects over window_live_dirs(), as Lunule does
  World all;   // selects over candidate_dirs()
  ASSERT_EQ(live.cluster.window_live_dirs()->size(),
            all.cluster.window_live_dirs()->size());
  // The heat-only tail the window-live set drops.
  ASSERT_GT(live.cluster.candidate_dirs()->size(),
            2 * live.cluster.window_live_dirs()->size());

  // The hottest-shard rule: identical walk input, hence identical submits.
  for (MdsId owner = 0; owner < 2; ++owner) {
    const auto want = busy_shards(all.cluster, owner,
                                  all.cluster.candidate_dirs());
    const auto got = busy_shards(live.cluster, owner,
                                 live.cluster.window_live_dirs());
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_candidate(got[i], want[i]);
    }
  }

  core::SelectorParams params;
  params.window_seconds = 60.0;
  params.hot_skip_iops = 1e9;
  params.inode_cap = 1u << 20;
  const core::SubtreeSelector selector(params);
  // Which path answered: a split during the call that produced the
  // output is path 2, a lone unit within tolerance path 1, else path 3.
  std::optional<DirId> split;
  live.tree.set_fragment_hook(
      [&](DirId d, std::uint8_t, std::uint8_t) { split = d; });
  std::size_t paths[4] = {0, 0, 0, 0};
  for (double amount = 0.05; amount < 400.0; amount *= 1.15) {
    SCOPED_TRACE("amount " + std::to_string(amount));
    split.reset();
    const std::vector<core::Selection> got =
        selector.select(live.tree, 0, amount, 0,
                        live.cluster.window_live_dirs());
    const std::vector<core::Selection> want =
        selector.select(all.tree, 0, amount, 0, all.cluster.candidate_dirs());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_selection(got[i], want[i]);
    }
    if (got.empty()) continue;
    if (split.has_value() && got.front().ref.dir == *split &&
        got.front().ref.is_frag()) {
      ++paths[2];
    } else if (got.size() == 1 &&
               std::abs(got.front().predicted_iops - amount) <=
                   params.tolerance * amount) {
      ++paths[1];
    } else {
      ++paths[3];
    }
  }
  EXPECT_GT(paths[1], 0u);
  EXPECT_GT(paths[2], 0u);
  EXPECT_GT(paths[3], 0u);

  // The real rule on a skewed epoch submits only busy shards, in order.
  core::LunuleParams hash =
      core::LunuleParams::for_cluster(World::cluster_params());
  hash.selection = core::SelectionRule::kHottestShard;
  hash.min_pipeline_fraction = 0.0;
  hash.selector.hot_skip_iops = 1e9;
  core::LunuleBalancer balancer(hash);
  const auto busy = busy_shards(all.cluster, 0, all.cluster.candidate_dirs());
  balancer.on_epoch(live.cluster, std::vector<Load>{3000, 10, 10, 10});
  const auto& tasks = live.cluster.migration().tasks();
  ASSERT_FALSE(tasks.empty());
  std::size_t next = 0;
  for (const mds::ExportTask& t : tasks) {
    while (next < busy.size() && !(busy[next].ref == t.subtree)) ++next;
    ASSERT_LT(next, busy.size()) << "submitted a shard outside the walk";
  }
}

}  // namespace
}  // namespace lunule
