// Deterministic fuzz / property tests: random operation sequences against
// the namespace tree, migration engine and access recorder, checking the
// structural invariants every balancer relies on.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "fs/builder.h"
#include "fs/namespace_tree.h"
#include "mds/access_recorder.h"
#include "mds/migration.h"
#include "sim/scenario.h"

namespace lunule {
namespace {

constexpr std::size_t kMds = 5;

/// Builds a random three-level namespace.
fs::NamespaceTree random_tree(Rng& rng, std::vector<DirId>& leaves) {
  fs::NamespaceTree tree;
  const auto tops = 1 + rng.next_below(4);
  for (std::uint64_t t = 0; t < tops; ++t) {
    const DirId top = tree.add_dir(tree.root(), "t" + std::to_string(t));
    const auto mids = 1 + rng.next_below(5);
    for (std::uint64_t m = 0; m < mids; ++m) {
      const DirId mid = tree.add_dir(top, "m" + std::to_string(m));
      tree.add_files(mid, static_cast<std::uint32_t>(rng.next_below(200)));
      leaves.push_back(mid);
    }
  }
  return tree;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, NamespaceInvariantsUnderRandomOperations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  std::vector<DirId> leaves;
  fs::NamespaceTree tree = random_tree(rng, leaves);
  const std::uint64_t initial_inodes = tree.total_inodes();
  std::uint64_t created = 0;

  for (int step = 0; step < 400; ++step) {
    const auto op = rng.next_below(5);
    const DirId leaf = leaves[rng.next_below(leaves.size())];
    switch (op) {
      case 0:  // pin a subtree
        tree.set_auth(leaf, static_cast<MdsId>(rng.next_below(kMds)));
        break;
      case 1:  // unpin (only if pinned; root stays pinned)
        if (tree.explicit_auth(leaf) != kNoMds) {
          tree.clear_auth(leaf);
        }
        break;
      case 2:  // create a file
        tree.create_file(leaf);
        ++created;
        break;
      case 3:  // fragment (grow only)
        if (tree.frag_bits(leaf) < 4 &&
            tree.dir(leaf).file_count() > 8) {
          tree.fragment_dir(
              leaf, static_cast<std::uint8_t>(tree.frag_bits(leaf) + 1));
        }
        break;
      case 4:  // pin a random frag
        tree.set_frag_auth(
            leaf,
            static_cast<FragId>(rng.next_below(tree.frag_count(leaf))),
            static_cast<MdsId>(rng.next_below(kMds)));
        break;
    }

    // Invariant 1: inode accounting is conserved.
    ASSERT_EQ(tree.total_inodes(), initial_inodes + created);

    // Invariant 2: the per-MDS census partitions the namespace.
    const auto census = tree.inodes_per_mds(kMds);
    std::uint64_t sum = 0;
    for (const auto c : census) sum += c;
    ASSERT_EQ(sum, tree.total_inodes());

    // Invariant 3: per-frag file counts partition each directory.
    std::uint32_t frag_files = 0;
    for (const auto& frag : tree.frags(leaf)) {
      frag_files += frag.file_count;
    }
    ASSERT_EQ(frag_files, tree.dir(leaf).file_count());
  }

  // Invariant 4: simplify_auth never changes any resolved authority.
  std::vector<MdsId> before;
  for (DirId d = 0; d < tree.dir_count(); ++d) before.push_back(tree.auth_of(d));
  tree.simplify_auth();
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    ASSERT_EQ(tree.auth_of(d), before[d]) << "dir " << d;
  }
  // ...and is idempotent: a second call clears no pin.
  const auto pins = [&tree] {
    std::vector<MdsId> out;
    for (DirId d = 0; d < tree.dir_count(); ++d) {
      out.push_back(tree.explicit_auth(d));
      for (const auto& frag : tree.frags(d)) out.push_back(frag.auth_pin);
    }
    return out;
  };
  const std::vector<MdsId> once = pins();
  tree.simplify_auth();
  EXPECT_EQ(pins(), once);
}

TEST_P(FuzzSweep, MigrationEngineConservesInodes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  std::vector<DirId> leaves;
  fs::NamespaceTree tree = random_tree(rng, leaves);
  const std::uint64_t total = tree.total_inodes();

  mds::MigrationParams mp;
  mp.bandwidth_inodes_per_tick = 20.0 + rng.next_double() * 100.0;
  mp.hot_abort_iops = 1e9;  // no load in this test: never abort
  mds::MigrationEngine engine(tree, mp);

  std::uint64_t accepted = 0;
  for (int step = 0; step < 300; ++step) {
    if (rng.next_bool(0.3)) {
      const DirId leaf = leaves[rng.next_below(leaves.size())];
      fs::SubtreeRef ref{.dir = leaf};
      if (tree.fragmented(leaf) && rng.next_bool(0.5)) {
        ref.frag =
            static_cast<FragId>(rng.next_below(tree.frag_count(leaf)));
      }
      if (engine.submit(ref, static_cast<MdsId>(rng.next_below(kMds)))) {
        ++accepted;
      }
    }
    engine.tick();
    // Conservation: no migration creates or destroys inodes.
    ASSERT_EQ(tree.total_inodes(), total);
    const auto census = tree.inodes_per_mds(kMds);
    std::uint64_t sum = 0;
    for (const auto c : census) sum += c;
    ASSERT_EQ(sum, total);
  }
  // Drain the engine completely.
  for (int t = 0; t < 5000 && engine.backlog_inodes() > 0; ++t) {
    engine.tick();
  }
  EXPECT_EQ(engine.backlog_inodes(), 0u);
  EXPECT_EQ(engine.migrations_completed() + 0u, accepted);
}

TEST_P(FuzzSweep, RecorderInvariantsUnderRandomAccesses) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  std::vector<DirId> leaves;
  fs::NamespaceTree tree = random_tree(rng, leaves);
  mds::AccessRecorder recorder(tree, mds::RecorderParams{}, rng.fork(1));

  // Every op recorded in the open epoch sits in exactly one open
  // accumulator; a close pushes them all into the windows.
  const auto open_visits = [&tree] {
    std::uint64_t visits = 0;
    for (DirId d = 0; d < tree.dir_count(); ++d) {
      for (const auto& frag : tree.frags(d)) visits += frag.open.visits;
    }
    return visits;
  };
  EpochId epoch = 0;
  std::uint64_t recorded = 0;  // since the last close
  for (int step = 0; step < 3000; ++step) {
    const DirId leaf = leaves[rng.next_below(leaves.size())];
    if (tree.dir(leaf).file_count() == 0 || rng.next_bool(0.05)) {
      const FileIndex idx = tree.create_file(leaf);
      recorder.record_create(leaf, idx, epoch);
    } else {
      recorder.record(
          leaf, static_cast<FileIndex>(rng.next_below(tree.dir(leaf).file_count())),
          epoch);
    }
    ++recorded;
    if (rng.next_bool(0.02)) {
      ASSERT_EQ(open_visits(), recorded) << "closing epoch " << epoch;
      recorder.close_epoch();
      ASSERT_EQ(open_visits(), 0u) << "closed epoch " << epoch;
      recorded = 0;
      ++epoch;
    }
  }
  EXPECT_EQ(open_visits(), recorded);

  for (const DirId leaf : std::set<DirId>(leaves.begin(), leaves.end())) {
    for (const auto& frag : tree.frags(leaf)) {
      // Visited census never exceeds the population.
      ASSERT_LE(frag.visited_files, frag.file_count);
      // Logical visits never exceed ops; first visits never exceed logical.
      ASSERT_LE(frag.open.file_visits, frag.open.visits);
      ASSERT_LE(frag.open.first_visits, frag.open.file_visits);
    }
  }
}

TEST_P(FuzzSweep, FaultyScenariosHoldEpochInvariants) {
  // End-to-end: random crash / slow-node / forced-abort schedules over a
  // small scenario.  The simulation's own epoch audit (always on in Debug,
  // LUNULE_VALIDATE=1 in Release) aborts on any violation, so the assertion
  // here is simply that the run completes and stays conserved across
  // fail-over and recovery.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 52361 + 11);

  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.balancer =
      rng.next_bool(0.5) ? sim::BalancerKind::kLunule
                         : sim::BalancerKind::kVanilla;
  cfg.n_clients = 8;
  cfg.scale = 0.05;
  cfg.max_ticks = 220;
  cfg.n_mds = 4;
  cfg.seed = seed;

  const auto random_rank = [&] {
    return static_cast<MdsId>(rng.next_below(cfg.n_mds));
  };
  const auto random_tick = [&] {
    return static_cast<Tick>(20 + rng.next_below(150));
  };
  const auto n_faults = 1 + rng.next_below(4);
  for (std::uint64_t f = 0; f < n_faults; ++f) {
    switch (rng.next_below(5)) {
      case 0:
        cfg.faults.crash(random_rank(), random_tick(),
                         static_cast<Tick>(10 + rng.next_below(60)));
        break;
      case 1:
        cfg.faults.lose(random_rank(), random_tick());
        break;
      case 2:
        cfg.faults.slow(random_rank(), random_tick(),
                        static_cast<Tick>(10 + rng.next_below(60)),
                        0.2 + 0.7 * rng.next_double());
        break;
      case 3:
        cfg.faults.abort_migrations(random_tick());
        break;
      case 4:
        cfg.faults.journal_stall(random_rank(), random_tick(),
                                 static_cast<Tick>(5 + rng.next_below(40)));
        break;
    }
  }

  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_GT(r.total_served, 0u);
  EXPECT_GE(r.faults.applied + r.faults.skipped, n_faults);
}

TEST_P(FuzzSweep, JournaledFaultyScenariosHoldJournalInvariants) {
  // Same property, with the metadata journal on and sized aggressively
  // (tiny segments, tight un-flushed cap) so segment roll-over, trim,
  // journal-full backpressure and crash replay all fire.  The epoch audit's
  // journal section (checkpoint == live authority, counter agreement)
  // aborts the run on any violation.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 96731 + 29);

  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_clients = 8;
  cfg.scale = 0.05;
  cfg.max_ticks = 220;
  cfg.n_mds = 4;
  cfg.seed = seed;
  cfg.journal.enabled = true;
  cfg.journal.segment_entries = static_cast<std::uint32_t>(
      8 + rng.next_below(64));
  cfg.journal.max_unflushed_entries = 50 + rng.next_below(200);

  const auto random_rank = [&] {
    return static_cast<MdsId>(rng.next_below(cfg.n_mds));
  };
  const auto random_tick = [&] {
    return static_cast<Tick>(20 + rng.next_below(150));
  };
  const auto n_faults = 1 + rng.next_below(3);
  for (std::uint64_t f = 0; f < n_faults; ++f) {
    switch (rng.next_below(3)) {
      case 0:
        cfg.faults.crash(random_rank(), random_tick(),
                         static_cast<Tick>(10 + rng.next_below(60)));
        break;
      case 1:
        cfg.faults.journal_stall(random_rank(), random_tick(),
                                 static_cast<Tick>(5 + rng.next_below(50)));
        break;
      case 2:
        cfg.faults.slow(random_rank(), random_tick(),
                        static_cast<Tick>(10 + rng.next_below(60)),
                        0.2 + 0.7 * rng.next_double());
        break;
    }
  }

  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_GT(r.total_served, 0u);
  EXPECT_GT(r.journal.appends, 0u);
  EXPECT_GT(r.journal.bytes_written, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace lunule
