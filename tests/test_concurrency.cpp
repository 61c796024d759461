// Tests for the process-wide concurrency budget and the worker pool — the
// two primitives the sharded tick engine is built on — and for the two
// epoch-path loops that run on the pool: candidate collection and the
// access recorder's fold.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "balancer/candidates.h"
#include "common/concurrency.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "mds/access_recorder.h"

namespace lunule {
namespace {

// -- ConcurrencyBudget -----------------------------------------------------

TEST(ConcurrencyBudget, GrantsAtMostWhatIsAvailable) {
  ConcurrencyBudget budget(3);
  EXPECT_EQ(budget.total(), 3u);
  EXPECT_EQ(budget.available(), 3u);
  const std::size_t got = budget.acquire(10);
  EXPECT_EQ(got, 3u);
  EXPECT_EQ(budget.available(), 0u);
  // A starved caller gets zero and must run inline.
  EXPECT_EQ(budget.acquire(2), 0u);
  budget.release(got);
  EXPECT_EQ(budget.available(), 3u);
}

TEST(ConcurrencyBudget, PartialGrantsSplitThePool) {
  ConcurrencyBudget budget(4);
  const std::size_t a = budget.acquire(3);
  const std::size_t b = budget.acquire(3);
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 1u);
  budget.release(a);
  budget.release(b);
  EXPECT_EQ(budget.available(), 4u);
}

TEST(ConcurrencyBudget, GrantIsRaii) {
  ConcurrencyBudget budget(2);
  {
    const ConcurrencyGrant grant(5, budget);
    EXPECT_EQ(grant.granted(), 2u);
    EXPECT_EQ(budget.available(), 0u);
  }
  EXPECT_EQ(budget.available(), 2u);
}

TEST(ConcurrencyBudget, ProcessInstanceExists) {
  // The shared instance must grant at least something once, so the
  // spawning paths are exercised even on single-core CI hosts.
  EXPECT_GE(ConcurrencyBudget::instance().total(), 1u);
}

// -- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, ZeroWorkersRunsEveryIndexInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> hits(17, 0);
  pool.run_indexed(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run_indexed(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyRounds) {
  WorkerPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.run_indexed(8, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200u * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(WorkerPool, EmptyRoundIsANoOp) {
  WorkerPool pool(2);
  pool.run_indexed(0, [&](std::size_t) { FAIL() << "fn called for n=0"; });
}

TEST(WorkerPool, SmallestIndexExceptionRethrows) {
  WorkerPool pool(3);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      pool.run_indexed(64, [&](std::size_t i) {
        if (i == 7 || i == 40) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Deterministic regardless of which worker hit which index first.
      EXPECT_STREQ(e.what(), "boom 7");
    }
  }
  // The pool survives a throwing round.
  std::atomic<int> ran{0};
  pool.run_indexed(5, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
}

// -- Parallel epoch paths ---------------------------------------------------
// Both loops chunk their directories across the pool only above a size
// cutoff (1,024 live directories to collect, 512 dirty ones to fold), which
// the small trees of the other suites never reach.  Each test drives two
// identical namespaces through the same accesses and runs the loop serially
// on one and on a 3-worker pool on the other.

/// A namespace of `groups` x `per_group` leaf directories under groups
/// pinned to ranks 0..3, with some directories re-pinned, fragmented and
/// fragment-pinned: every owner sees whole and fragmented units.
void build_mixed_tree(fs::NamespaceTree& tree, int groups, int per_group) {
  Rng rng(99);
  for (int g = 0; g < groups; ++g) {
    const DirId group = tree.add_dir(tree.root(), "g" + std::to_string(g));
    tree.set_auth(group, static_cast<MdsId>(g % 4));
    for (int i = 0; i < per_group; ++i) {
      const DirId d = tree.add_dir(group, "d" + std::to_string(i));
      tree.add_files(d, static_cast<std::uint32_t>(rng.next_between(4, 40)));
      if (rng.next_bool(0.1)) {
        tree.set_auth(d, static_cast<MdsId>(rng.next_below(4)));
      }
      if (rng.next_bool(0.1)) {
        tree.fragment_dir(d, static_cast<std::uint8_t>(rng.next_between(1, 2)));
        if (rng.next_bool(0.5)) {
          tree.set_frag_auth(d, 0, static_cast<MdsId>(rng.next_below(4)));
        }
      }
    }
  }
}

/// Epoch `e` of a seeded access stream over the leaf directories: the
/// first epoch touches every directory, later ones a shifting random part,
/// so fragments lag by different amounts.
void drive_epoch(mds::AccessRecorder& rec, const fs::NamespaceTree& tree,
                 std::uint64_t e) {
  Rng rng(1000 + e);
  for (DirId d = 1; d < tree.dir_count(); ++d) {
    const fs::Directory& dir = tree.dir(d);
    if (dir.file_count() == 0) continue;
    if (e > 0 && !rng.next_bool(0.5)) continue;
    const auto ops = rng.next_between(1, 6);
    for (std::int64_t k = 0; k < ops; ++k) {
      rec.record(d, static_cast<FileIndex>(rng.next_below(dir.file_count())),
                 static_cast<EpochId>(e));
    }
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Same closed epochs slot by slot, the credits bit for bit.
bool same_windows(const fs::CuttingWindows& a, const fs::CuttingWindows& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.counts(i) != b.counts(i) ||
        !same_bits(a.sibling_credit(i), b.sibling_credit(i))) {
      return false;
    }
  }
  return true;
}

/// A namespace with its recorder (the recorder keeps a reference to it).
struct Recorded {
  Recorded(int groups, int per_group) : rec(tree, {}, Rng(5)) {
    build_mixed_tree(tree, groups, per_group);
  }
  fs::NamespaceTree tree;
  mds::AccessRecorder rec;
};

/// Every field of every live fragment, each directory's bookkeeping in the
/// recorder's flat arrays (touched stamp, expiry and window bounds) and
/// both of its sets.
void expect_same_stats(const Recorded& one, const Recorded& other) {
  const fs::NamespaceTree& a = one.tree;
  const fs::NamespaceTree& b = other.tree;
  const mds::AccessRecorder& ra = one.rec;
  const mds::AccessRecorder& rb = other.rec;
  ASSERT_EQ(a.dir_count(), b.dir_count());
  EXPECT_EQ(ra.active_dirs(), rb.active_dirs());
  EXPECT_EQ(ra.window_live_dirs(), rb.window_live_dirs());
  for (DirId d = 0; d < a.dir_count(); ++d) {
    ASSERT_EQ(a.frag_count(d), b.frag_count(d));
    EXPECT_EQ(ra.touched_epoch(d), rb.touched_epoch(d));
    EXPECT_EQ(ra.stats_dead_epoch(d), rb.stats_dead_epoch(d));
    EXPECT_EQ(ra.window_dead_epoch(d), rb.window_dead_epoch(d));
    for (FragId f = 0; f < static_cast<FragId>(a.frag_count(d)); ++f) {
      const fs::FragStats& x = a.frag(d, f);
      const fs::FragStats& y = b.frag(d, f);
      SCOPED_TRACE("dirfrag " + std::to_string(d) + "/" + std::to_string(f));
      EXPECT_EQ(x.stats_epoch, y.stats_epoch);
      EXPECT_EQ(x.dead_epoch, y.dead_epoch);
      EXPECT_EQ(x.open, y.open);
      EXPECT_EQ(x.visited_files, y.visited_files);
      EXPECT_TRUE(same_bits(x.heat, y.heat));
      EXPECT_TRUE(same_bits(x.sibling_credit_epoch, y.sibling_credit_epoch));
      EXPECT_TRUE(same_windows(x.windows, y.windows));
    }
  }
}

TEST(ParallelCollect, PoolMatchesSerialScan) {
  Recorded serial(4, 300);
  Recorded parallel(4, 300);
  WorkerPool pool(3);
  for (std::uint64_t e = 0; e < 8; ++e) {
    drive_epoch(serial.rec, serial.tree, e);
    drive_epoch(parallel.rec, parallel.tree, e);
    serial.rec.close_epoch();
    parallel.rec.close_epoch();
  }
  ASSERT_GE(serial.rec.active_dirs().size(), 1024u);
  ASSERT_EQ(serial.rec.active_dirs(), parallel.rec.active_dirs());

  std::vector<balancer::Candidate> want;
  std::vector<balancer::Candidate> got;
  std::size_t frag_units = 0;
  for (const bool live_only : {true, false}) {
    for (MdsId owner = 0; owner < 4; ++owner) {
      balancer::collect_candidates_into(
          want, serial.tree, owner,
          live_only ? &serial.rec.active_dirs() : nullptr, nullptr);
      balancer::collect_candidates_into(
          got, parallel.tree, owner,
          live_only ? &parallel.rec.active_dirs() : nullptr, &pool);
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        const balancer::Candidate& w = want[i];
        const balancer::Candidate& g = got[i];
        SCOPED_TRACE("owner " + std::to_string(owner) + " unit " +
                     std::to_string(i));
        if (w.ref.is_frag()) ++frag_units;
        EXPECT_EQ(g.ref, w.ref);
        EXPECT_EQ(g.auth, w.auth);
        EXPECT_EQ(g.inodes, w.inodes);
        EXPECT_TRUE(same_bits(g.heat, w.heat));
        EXPECT_EQ(g.windows, w.windows);
        EXPECT_TRUE(
            same_bits(g.windows.sibling_credit, w.windows.sibling_credit));
        EXPECT_EQ(g.visits_last_epoch, w.visits_last_epoch);
        EXPECT_EQ(g.unvisited, w.unvisited);
      }
    }
  }
  EXPECT_GT(frag_units, 0u);
  // Collection rolls the owned fragments forward: both sides rolled the
  // same ones to the same state.
  expect_same_stats(serial, parallel);
}

TEST(ParallelFold, PoolMatchesSerialClose) {
  Recorded serial(2, 600);
  Recorded parallel(2, 600);
  WorkerPool pool(3);
  for (std::uint64_t e = 0; e < 12; ++e) {
    // The stream stops after epoch 6, so directories also expire.
    if (e < 6) {
      drive_epoch(serial.rec, serial.tree, e);
      drive_epoch(parallel.rec, parallel.tree, e);
      std::size_t dirty = 0;
      for (DirId d = 0; d < serial.tree.dir_count(); ++d) {
        if (serial.rec.touched_epoch(d) == serial.tree.stats_clock()) {
          ++dirty;
        }
      }
      ASSERT_GE(dirty, 512u);
    }
    serial.rec.close_epoch();
    parallel.rec.close_epoch(&pool);
    SCOPED_TRACE("close " + std::to_string(e));
    expect_same_stats(serial, parallel);
  }
}

}  // namespace
}  // namespace lunule
