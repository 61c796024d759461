// Tests for the per-rank metadata journal and crash-recovery replay:
// segment lifecycle, group commit, stall backpressure, trim, replay
// reconstruction, and the cluster-level wiring (checkpoint cadence,
// journal debt, replay-based fail-over, counter agreement).
#include "journal/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>

#include "common/rng.h"
#include "fs/builder.h"
#include "fs/namespace_tree.h"
#include "journal/replay.h"
#include "mds/cluster.h"
#include "sim/json_export.h"
#include "sim/scenario.h"

namespace lunule {
namespace {

journal::JournalEntry update_entry(DirId d) {
  journal::JournalEntry e;
  e.type = journal::EntryType::kUpdate;
  e.dir = d;
  return e;
}

journal::JournalEntry delta_entry(journal::EntryType type, DirId d,
                                  FragId f = kWholeDir) {
  journal::JournalEntry e;
  e.type = type;
  e.dir = d;
  e.frag = f;
  return e;
}

std::uint64_t append_map(journal::MdsJournal& j,
                         std::vector<fs::SubtreeRef> owned,
                         std::vector<double> history, EpochId epoch) {
  return j.append_checkpoint(
      /*tick=*/-1, epoch,
      {.owned = std::move(owned), .load_history = std::move(history)});
}

// -- MdsJournal unit tests --------------------------------------------------

TEST(MdsJournal, AppendAssignsMonotonicSeqsAndOpensSegments) {
  journal::JournalParams p;
  p.enabled = true;
  p.segment_entries = 4;
  journal::MdsJournal j(0, p);

  for (DirId d = 0; d < 10; ++d) {
    EXPECT_EQ(j.append(update_entry(d)), d + 1u);
  }
  EXPECT_EQ(j.seq(), 10u);
  EXPECT_EQ(j.unflushed(), 10u);
  EXPECT_EQ(j.entries_retained(), 10u);
  ASSERT_EQ(j.segments().size(), 3u);
  EXPECT_EQ(j.segments()[0].entries.size(), 4u);
  EXPECT_EQ(j.segments()[1].entries.size(), 4u);
  EXPECT_EQ(j.segments()[2].entries.size(), 2u);
  EXPECT_EQ(j.appends(), 10u);
  // Every EUpdate bills the same modeled size.
  EXPECT_EQ(j.bytes_written(),
            10u * journal::entry_bytes(journal::EntryType::kUpdate));
}

TEST(MdsJournal, FlushMakesDurableOnceAndIsIdempotent) {
  journal::MdsJournal j(0, journal::JournalParams{});
  j.append(update_entry(1));
  j.append(update_entry(2));
  EXPECT_TRUE(j.flush(0));
  EXPECT_EQ(j.durable_seq(), 2u);
  EXPECT_EQ(j.unflushed(), 0u);
  // Nothing new pending: a second flush is a no-op.
  EXPECT_FALSE(j.flush(1));
  EXPECT_EQ(j.flushes(), 1u);
}

TEST(MdsJournal, StallBlocksFlushUntilDeadline) {
  journal::MdsJournal j(0, journal::JournalParams{});
  j.append(update_entry(1));
  j.stall_until(5);
  EXPECT_TRUE(j.stalled(3));
  EXPECT_FALSE(j.flush(3));
  EXPECT_EQ(j.durable_seq(), 0u);
  // The deadline itself is past the stall window.
  EXPECT_FALSE(j.stalled(5));
  EXPECT_TRUE(j.flush(5));
  EXPECT_EQ(j.durable_seq(), 1u);
}

TEST(MdsJournal, FullBackpressureAtUnflushedCap) {
  journal::JournalParams p;
  p.max_unflushed_entries = 3;
  journal::MdsJournal j(0, p);
  j.append(update_entry(1));
  j.append(update_entry(2));
  EXPECT_FALSE(j.full());
  j.append(update_entry(3));
  EXPECT_TRUE(j.full());
  EXPECT_TRUE(j.flush(0));
  EXPECT_FALSE(j.full());
}

TEST(MdsJournal, MaybeFlushHonorsCadence) {
  journal::JournalParams p;
  p.flush_interval_ticks = 3;
  journal::MdsJournal j(0, p);
  j.append(update_entry(1));
  EXPECT_TRUE(j.maybe_flush(0));  // first flush is always due
  j.append(update_entry(2));
  EXPECT_FALSE(j.maybe_flush(1));  // within the interval
  EXPECT_FALSE(j.maybe_flush(2));
  EXPECT_TRUE(j.maybe_flush(3));
}

TEST(MdsJournal, TrimDropsSegmentsCoveredByDurableCheckpoint) {
  journal::JournalParams p;
  p.segment_entries = 2;
  journal::MdsJournal j(0, p);
  for (DirId d = 0; d < 4; ++d) j.append(update_entry(d));
  append_map(j, {fs::SubtreeRef{.dir = 1}}, {}, 0);  // seq 5
  // Not durable yet: nothing may be trimmed.
  EXPECT_EQ(j.trim(), 0u);
  EXPECT_TRUE(j.flush(0));
  EXPECT_EQ(j.durable_subtree_map_seq(), 5u);
  EXPECT_EQ(j.trim(), 2u);  // both all-EUpdate segments precede the map
  ASSERT_EQ(j.segments().size(), 1u);
  EXPECT_EQ(j.segments().front().entries.front().seq, 5u);
  EXPECT_EQ(j.entries_retained(), 1u);
  EXPECT_EQ(j.segments_trimmed(), 2u);
  // Lifetime append statistics are unaffected by trimming.
  EXPECT_EQ(j.appends(), 5u);
}

TEST(MdsJournal, ResetClearsContentButKeepsSeqAndLifetimeStats) {
  journal::MdsJournal j(0, journal::JournalParams{});
  j.append(update_entry(1));
  append_map(j, {}, {}, 0);
  j.flush(0);
  const std::uint64_t appends = j.appends();
  const std::uint64_t bytes = j.bytes_written();
  j.reset();
  EXPECT_TRUE(j.segments().empty());
  EXPECT_EQ(j.entries_retained(), 0u);
  EXPECT_EQ(j.unflushed(), 0u);
  EXPECT_EQ(j.durable_subtree_map_seq(), 0u);
  // Sequence numbers keep counting across incarnations...
  EXPECT_EQ(j.seq(), 2u);
  j.append(update_entry(2));
  EXPECT_EQ(j.seq(), 3u);
  // ...and the monotonic lifetime statistics survive.
  EXPECT_EQ(j.appends(), appends + 1);
  EXPECT_GT(j.bytes_written(), bytes);
}

TEST(JournalEntryLayout, FixedSizeTriviallyCopyableRecord) {
  // The same contract journal_entry.h asserts at compile time: an append
  // copies 48 bytes and a trimmed segment frees without per-entry work.
  static_assert(std::is_trivially_copyable_v<journal::JournalEntry>);
  static_assert(std::is_trivially_destructible_v<journal::JournalEntry>);
  static_assert(sizeof(journal::JournalEntry) <= 48);
  EXPECT_EQ(sizeof(journal::JournalEntry), 48u);
}

TEST(MdsJournal, CheckpointPayloadsMirrorRetainedMapEntries) {
  // A seeded random walk over appends of all four entry types, flushes,
  // stall windows, trims and resets.  After every step the payload store
  // must mirror the retained ESubtreeMap entries exactly, and replay must
  // start from the newest durable checkpoint this test tracks itself.
  journal::JournalParams p;
  p.segment_entries = 4;
  p.history_decay_per_epoch = 1.0;  // replayed history == checkpointed
  journal::MdsJournal j(0, p);
  Rng rng(27);

  struct Appended {
    EpochId epoch = -1;
    journal::SubtreeSnapshot snapshot;
  };
  std::map<std::uint64_t, Appended> maps;  // every map ever appended
  struct Delta {
    std::uint64_t seq = 0;
    journal::EntryType type = journal::EntryType::kUpdate;
    fs::SubtreeRef ref;
  };
  std::vector<Delta> deltas;  // authority deltas since the last reset
  std::uint64_t newest_map = 0;
  std::uint64_t durable_map = 0;
  std::uint64_t expected_bytes = 0;
  Tick now = 0;
  EpochId epoch = 0;
  const auto random_ref = [&] {
    return fs::SubtreeRef{
        .dir = static_cast<DirId>(rng.next_below(5)),
        .frag = static_cast<FragId>(rng.next_below(3)) - 1};
  };

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      j.append(update_entry(static_cast<DirId>(rng.next_below(5))));
      expected_bytes += journal::entry_bytes(journal::EntryType::kUpdate);
    } else if (op < 55) {
      const journal::EntryType type = rng.next_bool(0.5)
                                          ? journal::EntryType::kImportStart
                                          : journal::EntryType::kExportCommit;
      const fs::SubtreeRef ref = random_ref();
      deltas.push_back(
          {.seq = j.append(delta_entry(type, ref.dir, ref.frag)),
           .type = type,
           .ref = ref});
      expected_bytes += journal::entry_bytes(type);
    } else if (op < 70) {
      journal::SubtreeSnapshot snap;
      for (DirId d = 0; d < 5; ++d) {
        if (rng.next_bool(0.4)) snap.owned.push_back(fs::SubtreeRef{.dir = d});
        if (rng.next_bool(0.2)) {
          snap.owned.push_back(fs::SubtreeRef{.dir = d, .frag = 1});
        }
      }
      for (std::uint64_t h = rng.next_below(4); h > 0; --h) {
        snap.load_history.push_back(static_cast<double>(rng.next_below(1000)));
      }
      expected_bytes += journal::entry_bytes(journal::EntryType::kSubtreeMap,
                                             snap.owned.size(),
                                             snap.load_history.size());
      ++epoch;
      newest_map = append_map(j, snap.owned, snap.load_history, epoch);
      maps[newest_map] = {.epoch = epoch, .snapshot = std::move(snap)};
    } else if (op < 85) {
      if (j.flush(++now)) durable_map = newest_map;
    } else if (op < 90) {
      j.stall_until(now + static_cast<Tick>(rng.next_below(6)));
    } else if (op < 98) {
      j.trim();
    } else {
      j.reset();
      newest_map = 0;
      durable_map = 0;
      deltas.clear();
    }
    SCOPED_TRACE("step " + std::to_string(step));

    // The store holds exactly the retained map entries, in seq order.
    std::vector<std::uint64_t> retained_maps;
    for (const journal::JournalSegment& seg : j.segments()) {
      for (const journal::JournalEntry& e : seg.entries) {
        if (e.type == journal::EntryType::kSubtreeMap) {
          retained_maps.push_back(e.seq);
        }
      }
    }
    std::vector<std::uint64_t> stored;
    for (const journal::Checkpoint& c : j.checkpoints()) stored.push_back(c.seq);
    ASSERT_EQ(stored, retained_maps);
    // Each retained payload is what was appended with it; every trimmed
    // or reset checkpoint's lookup is null.
    for (const auto& [seq, appended] : maps) {
      const journal::Checkpoint* c = j.checkpoint(seq);
      if (!std::binary_search(stored.begin(), stored.end(), seq)) {
        EXPECT_EQ(c, nullptr) << "seq " << seq;
        continue;
      }
      ASSERT_NE(c, nullptr) << "seq " << seq;
      EXPECT_EQ(c->epoch, appended.epoch);
      EXPECT_EQ(c->snapshot.owned, appended.snapshot.owned);
      EXPECT_EQ(c->snapshot.load_history, appended.snapshot.load_history);
    }
    ASSERT_EQ(j.bytes_written(), expected_bytes);
    ASSERT_EQ(j.durable_subtree_map_seq(), durable_map);

    // Replay starts from the tracked durable checkpoint and patches it with
    // the later durable authority deltas.
    const journal::ReplayResult r = journal::replay_journal(j, epoch, p);
    std::vector<fs::SubtreeRef> owned;
    if (durable_map != 0) {
      const Appended& cp = maps.at(durable_map);
      EXPECT_EQ(r.checkpoint_epoch, cp.epoch);
      EXPECT_EQ(r.load_history, cp.snapshot.load_history);
      owned = cp.snapshot.owned;
    } else {
      EXPECT_EQ(r.checkpoint_epoch, -1);
      EXPECT_TRUE(r.load_history.empty());
    }
    for (const Delta& d : deltas) {
      if (d.seq <= durable_map || d.seq > j.durable_seq()) continue;
      const auto it = std::find(owned.begin(), owned.end(), d.ref);
      if (d.type == journal::EntryType::kImportStart && it == owned.end()) {
        owned.push_back(d.ref);
      } else if (d.type == journal::EntryType::kExportCommit &&
                 it != owned.end()) {
        owned.erase(it);
      }
    }
    std::sort(owned.begin(), owned.end(),
              [](const fs::SubtreeRef& a, const fs::SubtreeRef& b) {
                return a.dir != b.dir ? a.dir < b.dir : a.frag < b.frag;
              });
    EXPECT_EQ(r.owned, owned);
  }
  // The walk reached every state worth checking.
  EXPECT_GT(j.segments_trimmed(), 0u);
}

// -- Backpressure edge cases ------------------------------------------------

TEST(MdsJournal, FullTripsExactlyAtTheCapAndNonCreateAppendsPushPast) {
  journal::JournalParams p;
  p.max_unflushed_entries = 4;
  journal::MdsJournal j(0, p);
  for (DirId d = 0; d < 3; ++d) j.append(update_entry(d));
  EXPECT_FALSE(j.full());  // 3 < 4: one more create still fits
  j.append(update_entry(3));
  EXPECT_TRUE(j.full());  // exactly at the cap, not one entry later
  // The cap only gates admission (try_create checks full() first); the
  // journal itself keeps accepting — migration records and checkpoints must
  // never be dropped just because mutations saturated the window.
  j.append(delta_entry(journal::EntryType::kExportCommit, 9));
  append_map(j, {fs::SubtreeRef{.dir = 9}}, {}, 0);
  EXPECT_EQ(j.unflushed(), 6u);
  EXPECT_TRUE(j.full());
  EXPECT_TRUE(j.flush(0));
  EXPECT_FALSE(j.full());
}

TEST(MdsJournal, StallSuspendsTheCadenceClockUntilTheDeadline) {
  journal::JournalParams p;
  p.flush_interval_ticks = 3;
  journal::MdsJournal j(0, p);
  j.append(update_entry(1));
  EXPECT_TRUE(j.maybe_flush(0));
  j.append(update_entry(2));
  j.stall_until(10);
  // Cadence ticks that land inside the stall do not flush — and must not
  // advance the cadence clock either, or the post-stall flush would wait a
  // whole extra interval on top of the stall.
  EXPECT_FALSE(j.maybe_flush(3));
  EXPECT_FALSE(j.maybe_flush(6));
  EXPECT_FALSE(j.maybe_flush(9));
  EXPECT_EQ(j.durable_seq(), 1u);
  j.append(update_entry(3));
  // First tick past the deadline: the whole accumulated backlog goes
  // durable in one group commit.
  EXPECT_TRUE(j.maybe_flush(10));
  EXPECT_EQ(j.durable_seq(), 3u);
  EXPECT_EQ(j.unflushed(), 0u);
  EXPECT_EQ(j.flushes(), 2u);
}

// -- Replay unit tests ------------------------------------------------------

TEST(Replay, EmptyJournalReplaysNothingForFree) {
  journal::JournalParams p;
  journal::MdsJournal j(0, p);
  const journal::ReplayResult r = journal::replay_journal(j, 5, p);
  EXPECT_EQ(r.entries_replayed, 0u);
  EXPECT_EQ(r.lost_entries, 0u);
  EXPECT_DOUBLE_EQ(r.replay_seconds, 0.0);
  EXPECT_EQ(r.checkpoint_epoch, -1);
  EXPECT_TRUE(r.owned.empty());
  EXPECT_TRUE(r.load_history.empty());
}

TEST(Replay, RebuildsOwnedFromSnapshotPlusDurableDeltas) {
  journal::JournalParams p;
  p.replay_base_seconds = 1.0;
  p.replay_entries_per_second = 100.0;
  journal::MdsJournal j(0, p);
  append_map(j, {fs::SubtreeRef{.dir = 1}, fs::SubtreeRef{.dir = 3}}, {}, 2);
  j.append(delta_entry(journal::EntryType::kImportStart, 5));
  j.append(delta_entry(journal::EntryType::kExportCommit, 3));
  ASSERT_TRUE(j.flush(0));
  // Appended after the last group commit: gone with the crash.
  for (DirId d = 0; d < 3; ++d) j.append(update_entry(d));

  const journal::ReplayResult r = journal::replay_journal(j, 2, p);
  EXPECT_EQ(r.entries_replayed, 3u);  // checkpoint + two deltas
  EXPECT_EQ(r.lost_entries, 3u);
  EXPECT_EQ(r.checkpoint_epoch, 2);
  ASSERT_EQ(r.owned.size(), 2u);
  EXPECT_EQ(r.owned[0].dir, 1u);  // namespace order
  EXPECT_EQ(r.owned[1].dir, 5u);  // imported after the checkpoint
  EXPECT_DOUBLE_EQ(r.replay_seconds, 1.0 + 3.0 / 100.0);
}

TEST(Replay, FallsBackToNewestDurableCheckpoint) {
  journal::JournalParams p;
  journal::MdsJournal j(0, p);
  append_map(j, {fs::SubtreeRef{.dir = 1}}, {}, 0);
  ASSERT_TRUE(j.flush(0));
  // A newer checkpoint exists but never went durable: replay must not see
  // it — only the flushed one counts.
  append_map(j, {fs::SubtreeRef{.dir = 1}, fs::SubtreeRef{.dir = 2}}, {},
             1);

  const journal::ReplayResult r = journal::replay_journal(j, 1, p);
  EXPECT_EQ(r.checkpoint_epoch, 0);
  ASSERT_EQ(r.owned.size(), 1u);
  EXPECT_EQ(r.owned[0].dir, 1u);
  EXPECT_EQ(r.lost_entries, 1u);
}

TEST(Replay, DecaysCheckpointedHistoryAcrossTheEpochGap) {
  journal::JournalParams p;
  p.history_decay_per_epoch = 0.5;
  journal::MdsJournal j(0, p);
  append_map(j, {}, {100.0, 40.0}, 2);
  ASSERT_TRUE(j.flush(0));

  const journal::ReplayResult r = journal::replay_journal(j, 5, p);
  ASSERT_EQ(r.load_history.size(), 2u);
  // Three epochs elapsed: each sample decays by 0.5^3.
  EXPECT_DOUBLE_EQ(r.load_history[0], 100.0 * 0.125);
  EXPECT_DOUBLE_EQ(r.load_history[1], 40.0 * 0.125);
}

// -- Cluster-level wiring ---------------------------------------------------

class JournalClusterTest : public ::testing::Test {
 protected:
  JournalClusterTest() {
    dirs = fs::build_private_dirs(tree, "w", 6, 100);
    params.n_mds = 3;
    params.mds_capacity_iops = 50.0;
    params.epoch_ticks = 2;
    params.journal.enabled = true;
  }

  /// Runs `ticks` ticks of `creates` creates/tick against `dir`, closing an
  /// epoch every `epoch_ticks`.
  void drive(mds::MdsCluster& cluster, DirId dir, Tick ticks, int creates) {
    for (Tick t = 0; t < ticks; ++t) {
      cluster.begin_tick(next_tick_);
      for (int i = 0; i < creates; ++i) cluster.try_create(dir);
      cluster.end_tick();
      if (++next_tick_ % params.epoch_ticks == 0) cluster.close_epoch();
    }
  }

  fs::NamespaceTree tree;
  mds::ClusterParams params;
  std::vector<DirId> dirs;
  Tick next_tick_ = 0;
};

TEST_F(JournalClusterTest, AppendsCheckpointsAndSyncsCounters) {
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[1], 1);
  drive(cluster, dirs[1], 4, 5);

  ASSERT_TRUE(cluster.journaling());
  const mds::MdsCluster::JournalTotals totals = cluster.journal_totals();
  // 20 EUpdates + one ESubtreeMap per alive rank per closed epoch.
  EXPECT_EQ(totals.appends, 20u + 2u * 3u);
  EXPECT_GT(totals.bytes_written, 0u);
  EXPECT_GT(totals.flushes, 0u);
  // Every alive rank has a durable checkpoint after an epoch close.
  for (MdsId m = 0; m < 3; ++m) {
    EXPECT_GT(cluster.journal(m).durable_subtree_map_seq(), 0u) << m;
  }
  // The journal counters read the totals as of the last epoch close.
  const obs::Counters counters = cluster.trace().counters();
  EXPECT_EQ(counters.value("journal.appends"), totals.appends);
  EXPECT_EQ(counters.value("journal.bytes_written"), totals.bytes_written);
  EXPECT_EQ(counters.value("journal.flushes"), totals.flushes);
}

TEST_F(JournalClusterTest, JournalingConsumesIopsBudget) {
  params.journal.append_cost_ops = 1.0;  // one op of debt per create
  mds::MdsCluster cluster(tree, params);
  cluster.begin_tick(0);
  int first = 0;
  while (cluster.try_create(dirs[0]) == mds::ServeResult::kServed) ++first;
  cluster.end_tick();
  // Tick 0 ran at full capacity; the appended debt is charged against tick
  // 1's budget, so strictly fewer creates fit.
  cluster.begin_tick(1);
  int second = 0;
  while (cluster.try_create(dirs[0]) == mds::ServeResult::kServed) ++second;
  cluster.end_tick();
  EXPECT_EQ(first, 50);
  EXPECT_LT(second, first);
}

TEST_F(JournalClusterTest, DisabledJournalIsInert) {
  params.journal.enabled = false;
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[1], 1);
  drive(cluster, dirs[1], 4, 5);

  EXPECT_FALSE(cluster.journaling());
  const mds::MdsCluster::JournalTotals totals = cluster.journal_totals();
  EXPECT_EQ(totals.appends, 0u);
  EXPECT_EQ(totals.bytes_written, 0u);
  // No journal counter may even appear: one would already change the trace
  // dump of journal-free runs.
  for (const auto& [name, counter] : cluster.trace().counters().all()) {
    EXPECT_EQ(std::string(name).rfind("journal.", 0), std::string::npos)
        << name;
  }
  // A crash on a journal-free cluster reports zero replay work.
  cluster.begin_tick(next_tick_);
  const mds::MdsCluster::FailoverStats stats = cluster.set_down(1);
  EXPECT_EQ(stats.replayed_entries, 0u);
  EXPECT_EQ(stats.lost_entries, 0u);
  EXPECT_DOUBLE_EQ(stats.replay_seconds, 0.0);
  EXPECT_EQ(stats.journaled_subtrees, 0u);
}

TEST_F(JournalClusterTest, CrashReplaysDurablePrefixAndOpensReplayWindow) {
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[2], 1);
  tree.set_auth(dirs[3], 1);
  drive(cluster, dirs[2], 2, 5);  // one closed epoch -> durable checkpoint

  // Mutations in the open tick are appended but not yet flushed when the
  // rank dies mid-tick: they are lost.
  cluster.begin_tick(next_tick_);
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(cluster.try_create(dirs[2]), mds::ServeResult::kServed);
  }
  const mds::MdsCluster::FailoverStats stats = cluster.set_down(1);

  EXPECT_GT(stats.replayed_entries, 0u);
  EXPECT_EQ(stats.lost_entries, 7u);
  EXPECT_GE(stats.replay_seconds, params.journal.replay_base_seconds);
  EXPECT_EQ(stats.journaled_subtrees, 2u);  // dirs[2] and dirs[3]
  EXPECT_EQ(stats.subtrees, 2u);
  // Every adopter pays the replay-window capacity penalty.
  bool any_replaying = false;
  for (MdsId m = 0; m < 3; ++m) {
    if (cluster.is_up(m) && cluster.server(m).replaying()) {
      any_replaying = true;
    }
  }
  EXPECT_TRUE(any_replaying);
  EXPECT_EQ(cluster.trace().counters().value("journal.replays"), 1u);
  EXPECT_EQ(cluster.trace().counters().value("journal.lost_entries"), 7u);
}

TEST_F(JournalClusterTest, ReplayWindowShrinksAdopterBudget) {
  params.journal.replay_capacity_penalty = 0.5;
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[2], 1);
  drive(cluster, dirs[2], 2, 5);
  cluster.begin_tick(next_tick_);
  cluster.set_down(1);
  cluster.end_tick();
  ++next_tick_;

  // Find the adopter: dirs[2] now resolves to a surviving rank.
  const MdsId adopter = tree.auth_of(dirs[2]);
  ASSERT_TRUE(cluster.is_up(adopter));
  ASSERT_TRUE(cluster.server(adopter).replaying());
  cluster.begin_tick(next_tick_);
  int served = 0;
  while (cluster.try_create(dirs[2]) == mds::ServeResult::kServed) ++served;
  // Half of the 50-IOPS capacity, minus the journal debt of the appends.
  EXPECT_LE(served, 25);
  EXPECT_GT(served, 0);
}

TEST_F(JournalClusterTest, SetUpResetsJournalButKeepsLifetimeStats) {
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[2], 1);
  drive(cluster, dirs[2], 2, 5);
  cluster.begin_tick(next_tick_);
  cluster.set_down(1);
  cluster.end_tick();

  const std::uint64_t seq_before = cluster.journal(1).seq();
  const std::uint64_t appends_before = cluster.journal(1).appends();
  ASSERT_GT(appends_before, 0u);
  cluster.set_up(1);
  EXPECT_TRUE(cluster.journal(1).segments().empty());
  EXPECT_EQ(cluster.journal(1).unflushed(), 0u);
  EXPECT_EQ(cluster.journal(1).seq(), seq_before);
  EXPECT_EQ(cluster.journal(1).appends(), appends_before);
}

TEST_F(JournalClusterTest, StalledJournalBackpressuresCreates) {
  params.journal.max_unflushed_entries = 4;
  mds::MdsCluster cluster(tree, params);
  cluster.stall_journal(0, 1000);
  cluster.begin_tick(0);
  int served = 0;
  mds::ServeResult last = mds::ServeResult::kServed;
  for (int i = 0; i < 10; ++i) {
    last = cluster.try_create(dirs[0]);
    if (last != mds::ServeResult::kServed) break;
    ++served;
  }
  // Four appends fill the un-flushed cap; the fifth create is refused.
  EXPECT_EQ(served, 4);
  EXPECT_EQ(last, mds::ServeResult::kSaturated);
  EXPECT_TRUE(cluster.journal(0).full());
  EXPECT_EQ(cluster.trace().counters().value("journal.stalls"), 1u);

  // Once the stall lifts, the end-of-tick flush drains the backlog and
  // creates flow again.
  cluster.stall_journal(0, 0);
  cluster.end_tick();
  cluster.begin_tick(1);
  EXPECT_FALSE(cluster.journal(0).full());
  EXPECT_EQ(cluster.try_create(dirs[0]), mds::ServeResult::kServed);
}

TEST_F(JournalClusterTest,
       BacklogDrainReadmitsRefusedCreatesDeterministically) {
  params.journal.max_unflushed_entries = 4;
  // Two independent clusters driven through the identical refuse/drain
  // sequence must agree op for op: backpressure admission is part of the
  // deterministic schedule, not a racy side channel.
  std::vector<std::vector<int>> served_per_run;
  std::vector<std::uint64_t> final_seq;
  for (int run = 0; run < 2; ++run) {
    fs::NamespaceTree t2;
    const std::vector<DirId> d2 = fs::build_private_dirs(t2, "w", 6, 100);
    mds::MdsCluster cluster(t2, params);
    cluster.stall_journal(0, 2);
    std::vector<int> served;
    for (Tick tick = 0; tick < 4; ++tick) {
      cluster.begin_tick(tick);
      int ok = 0;
      for (int i = 0; i < 6; ++i) {
        if (cluster.try_create(d2[0]) == mds::ServeResult::kServed) ++ok;
      }
      cluster.end_tick();
      served.push_back(ok);
    }
    served_per_run.push_back(served);
    final_seq.push_back(cluster.journal(0).seq());
  }
  EXPECT_EQ(served_per_run[0], served_per_run[1]);
  EXPECT_EQ(final_seq[0], final_seq[1]);
  // Tick 0 admits exactly the cap and refuses the rest; the backlog keeps
  // refusing creates while the stall holds (flushes run at end of tick,
  // after serving, so tick 2 still sees a full journal).  Once the lifted
  // stall lets the end-of-tick-2 group commit drain the backlog, refused
  // demand is re-admitted at the cap rate — the cap, not the stall, is
  // the steady-state limiter.
  EXPECT_EQ(served_per_run[0][0], 4);
  EXPECT_EQ(served_per_run[0][1], 0);  // stalled, journal still full
  EXPECT_EQ(served_per_run[0][2], 0);  // drain happens after tick 2 serves
  EXPECT_EQ(served_per_run[0][3], 4);  // re-admitted up to the cap
}

// -- Async journal mode -----------------------------------------------------

TEST(MdsJournal, AppendStampsDirectoryDependencyChains) {
  journal::MdsJournal j(0, journal::JournalParams{});
  EXPECT_EQ(j.append(update_entry(5)), 1u);  // first touch of dir 5
  EXPECT_EQ(j.append(update_entry(7)), 2u);  // first touch of dir 7
  EXPECT_EQ(j.append(update_entry(5)), 3u);  // depends on seq 1
  EXPECT_EQ(j.append(delta_entry(journal::EntryType::kExportCommit, 5)), 4u);
  append_map(j, {}, {}, 0);  // seq 5: depends on the whole prefix
  const auto& entries = j.segments().front().entries;
  EXPECT_EQ(entries[0].dep_seq, 0u);
  EXPECT_EQ(entries[1].dep_seq, 0u);
  EXPECT_EQ(entries[2].dep_seq, 1u);
  EXPECT_EQ(entries[3].dep_seq, 3u);  // export commit after the dir update
  EXPECT_EQ(entries[4].dep_seq, 4u);
}

TEST(MdsJournal, ResetClearsDependencyTrackingWithTheContent) {
  journal::MdsJournal j(0, journal::JournalParams{});
  j.append(update_entry(5));
  j.flush(0);
  j.reset();
  // The fresh incarnation replays from scratch: its first entry for dir 5
  // must not claim a dependency on the discarded incarnation's entry.
  j.append(update_entry(5));
  EXPECT_EQ(j.segments().front().entries.front().dep_seq, 0u);
}

TEST(MdsJournal, AsyncModeAcksAtAppendAndMetersTheBackgroundLane) {
  journal::JournalParams p;
  p.async_mode = true;
  p.async_high_water_entries = 2;
  journal::MdsJournal j(0, p);
  EXPECT_EQ(j.async_acked(), 0u);
  j.append(update_entry(1));
  EXPECT_EQ(j.async_acked(), 1u);
  EXPECT_FALSE(j.over_high_water());
  j.append(update_entry(2));
  EXPECT_TRUE(j.over_high_water());  // at the mark, not one past it
  j.charge_background(0.5);
  j.charge_background(1.5);
  j.note_throttle_tick();
  EXPECT_EQ(j.background_charges(), 2u);
  EXPECT_DOUBLE_EQ(j.background_ops(), 2.0);
  EXPECT_EQ(j.throttle_ticks(), 1u);
  EXPECT_TRUE(j.flush(0));
  EXPECT_FALSE(j.over_high_water());
  // Lifetime async statistics survive a crash reset like the other
  // monotonic counters.
  j.append(update_entry(3));
  j.reset();
  EXPECT_EQ(j.async_acked(), 3u);
  EXPECT_EQ(j.background_charges(), 2u);
}

TEST(MdsJournal, SyncModeNeverAcksNorCrossesHighWater) {
  journal::JournalParams p;
  p.async_high_water_entries = 1;
  journal::MdsJournal j(0, p);
  for (DirId d = 0; d < 5; ++d) j.append(update_entry(d));
  EXPECT_EQ(j.async_acked(), 0u);
  EXPECT_FALSE(j.over_high_water());  // async-only concept
}

TEST_F(JournalClusterTest, AsyncModeKeepsJournalDebtOffTheForeground) {
  params.journal.append_cost_ops = 1.0;
  params.journal.async_mode = true;
  mds::MdsCluster cluster(tree, params);
  cluster.begin_tick(0);
  int first = 0;
  while (cluster.try_create(dirs[0]) == mds::ServeResult::kServed) ++first;
  cluster.end_tick();
  // The mirror of JournalingConsumesIopsBudget: the same appends landed on
  // the background durability lane, so tick 1 serves at full capacity.
  cluster.begin_tick(1);
  int second = 0;
  while (cluster.try_create(dirs[0]) == mds::ServeResult::kServed) ++second;
  cluster.end_tick();
  EXPECT_EQ(first, 50);
  EXPECT_EQ(second, 50);
  const mds::MdsCluster::JournalTotals totals = cluster.journal_totals();
  EXPECT_EQ(totals.async_acked, totals.appends);
  EXPECT_GT(totals.async_background_charges, 0u);
  EXPECT_GT(totals.async_background_ops, 0.0);
}

TEST_F(JournalClusterTest, AsyncBacklogOverHighWaterThrottlesForeground) {
  params.journal.append_cost_ops = 1.0;
  params.journal.async_mode = true;
  params.journal.async_high_water_entries = 5;
  mds::MdsCluster cluster(tree, params);
  // A stalled device lets the backlog climb past the high-water mark;
  // appends then fall back to foreground journal debt and the throttle
  // meter runs.
  cluster.stall_journal(0, 1000);
  drive(cluster, dirs[0], 4, 10);
  const mds::MdsCluster::JournalTotals totals = cluster.journal_totals();
  EXPECT_GT(totals.async_throttle_ticks, 0u);
  // Foreground debt shows up as reduced admission: with 1.0 ops of debt per
  // over-water append, later ticks cannot keep serving the full 10.
  cluster.begin_tick(next_tick_);
  int served = 0;
  while (cluster.try_create(dirs[0]) == mds::ServeResult::kServed) ++served;
  EXPECT_LT(served, 50);
}

TEST_F(JournalClusterTest, AsyncCheckpointLeavesDurabilityTrailing) {
  params.journal.flush_interval_ticks = 5;
  params.journal.async_mode = true;
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[1], 1);
  drive(cluster, dirs[1], 2, 5);  // one closed epoch
  // Sync mode force-flushes at the checkpoint so replay always finds it
  // durable; async lets durability trail the flush cadence instead.
  EXPECT_EQ(cluster.journal(1).durable_subtree_map_seq(), 0u);
  EXPECT_GT(cluster.journal(1).unflushed(), 0u);

  params.journal.async_mode = false;
  fs::NamespaceTree t2;
  const std::vector<DirId> d2 = fs::build_private_dirs(t2, "w", 6, 100);
  mds::MdsCluster sync_cluster(t2, params);
  t2.set_auth(d2[1], 1);
  for (Tick t = 0; t < 2; ++t) {
    sync_cluster.begin_tick(t);
    for (int i = 0; i < 5; ++i) sync_cluster.try_create(d2[1]);
    sync_cluster.end_tick();
    if ((t + 1) % params.epoch_ticks == 0) sync_cluster.close_epoch();
  }
  EXPECT_GT(sync_cluster.journal(1).durable_subtree_map_seq(), 0u);
}

TEST_F(JournalClusterTest, AsyncCrashReportsAckedLostWindow) {
  params.journal.flush_interval_ticks = 10;  // durability trails far behind
  params.journal.async_mode = true;
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[2], 1);
  drive(cluster, dirs[2], 2, 5);
  cluster.begin_tick(next_tick_);
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(cluster.try_create(dirs[2]), mds::ServeResult::kServed);
  }
  const std::uint64_t backlog = cluster.journal(1).unflushed();
  ASSERT_GT(backlog, 0u);
  const mds::MdsCluster::FailoverStats stats = cluster.set_down(1);
  // Every lost entry had been acknowledged to a client at apply: the crash
  // surfaces them as the documented loss window, and the prefix audit holds.
  EXPECT_EQ(stats.acked_lost_entries, backlog);
  EXPECT_EQ(stats.lost_entries, backlog);
  EXPECT_EQ(stats.dependency_violations, 0u);
  EXPECT_EQ(cluster.trace().counters().value("journal.async_acked_lost"),
            backlog);
}

TEST_F(JournalClusterTest, SyncCrashReportsNoAckedLoss) {
  params.journal.flush_interval_ticks = 10;
  mds::MdsCluster cluster(tree, params);
  tree.set_auth(dirs[2], 1);
  drive(cluster, dirs[2], 2, 5);
  cluster.begin_tick(next_tick_);
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(cluster.try_create(dirs[2]), mds::ServeResult::kServed);
  }
  const mds::MdsCluster::FailoverStats stats = cluster.set_down(1);
  // Sync mode never acknowledged the un-flushed tail, so the same data loss
  // is not an *acknowledged* loss — and the async counter must not exist.
  EXPECT_GT(stats.lost_entries, 0u);
  EXPECT_EQ(stats.acked_lost_entries, 0u);
  for (const auto& [name, counter] : cluster.trace().counters().all()) {
    EXPECT_EQ(std::string(name).rfind("journal.async", 0), std::string::npos)
        << name;
  }
}

// -- Scenario-level behavior ------------------------------------------------

sim::ScenarioConfig journaled_crash_config(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_clients = 12;
  cfg.scale = 0.2;
  cfg.max_ticks = 300;
  cfg.seed = seed;
  cfg.journal.enabled = true;
  cfg.faults.crash(0, 60, 80);
  return cfg;
}

TEST(JournalScenario, CrashReportsReplayMetrics) {
  const sim::ScenarioResult r = sim::run_scenario(journaled_crash_config(7));
  EXPECT_GT(r.faults.replay_seconds, 0.0);
  EXPECT_GT(r.faults.replayed_entries, 0u);
  EXPECT_GT(r.faults.journaled_subtrees, 0u);
  EXPECT_GT(r.journal.appends, 0u);
  EXPECT_GT(r.journal.bytes_written, 0u);
}

TEST(JournalScenario, JournaledRunsAreDeterministic) {
  sim::ScenarioConfig cfg = journaled_crash_config(11);
  cfg.capture_trace = true;
  cfg.faults.journal_stall(1, 100, 30);
  const sim::ScenarioResult a = sim::run_scenario(cfg);
  const sim::ScenarioResult b = sim::run_scenario(cfg);
  EXPECT_EQ(sim::to_json(a), sim::to_json(b));
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_FALSE(a.trace_json.empty());
  // The journal left its marks in the trace.
  EXPECT_NE(a.trace_json.find("\"journal.appends\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"replay\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"journal_stall\""), std::string::npos);
}

TEST(JournalScenario, DisabledJournalLeavesTraceFreeOfJournalArtifacts) {
  sim::ScenarioConfig cfg = journaled_crash_config(13);
  cfg.journal.enabled = false;
  cfg.capture_trace = true;
  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_EQ(r.trace_json.find("journal"), std::string::npos);
  EXPECT_EQ(r.faults.replay_seconds, 0.0);
  EXPECT_EQ(r.journal.appends, 0u);
  EXPECT_EQ(r.journal.bytes_written, 0u);
}

TEST(JournalScenario, TightCapTrailingFlushAndStallStayDeterministic) {
  // flush_interval_ticks > 1 (a real trailing group commit) combined with a
  // mid-run device stall and a tight un-flushed cap: the nastiest
  // backpressure interaction must still complete the workload and trace
  // byte-identically across runs.
  sim::ScenarioConfig cfg = journaled_crash_config(17);
  cfg.faults = {};
  cfg.journal.flush_interval_ticks = 3;
  cfg.journal.max_unflushed_entries = 8;
  cfg.faults.journal_stall(0, 50, 30);
  cfg.capture_trace = true;
  const sim::ScenarioResult a = sim::run_scenario(cfg);
  const sim::ScenarioResult b = sim::run_scenario(cfg);
  EXPECT_EQ(sim::to_json(a), sim::to_json(b));
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.clients_done, a.n_clients)
      << "refused creates were never re-admitted";
  EXPECT_GT(a.journal.appends, 0u);
}

TEST(JournalScenario, AsyncCrashRunReportsLossWindowAndCleanAudit) {
  sim::ScenarioConfig cfg = journaled_crash_config(19);
  cfg.journal.async_mode = true;
  cfg.journal.flush_interval_ticks = 4;
  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_GT(r.journal.appends, 0u);
  EXPECT_EQ(r.journal.async_acked, r.journal.appends);
  EXPECT_GT(r.journal.async_background_charges, 0u);
  EXPECT_EQ(r.faults.acked_lost_entries, r.faults.lost_entries);
  EXPECT_EQ(r.faults.dependency_violations, 0u);
}

TEST(JournalScenario, AsyncTraceCarriesDurabilityLagEvents) {
  sim::ScenarioConfig cfg = journaled_crash_config(23);
  cfg.faults = {};
  cfg.capture_trace = true;
  cfg.journal.flush_interval_ticks = 4;
  cfg.journal.async_mode = true;
  const sim::ScenarioResult async_run = sim::run_scenario(cfg);
  EXPECT_NE(async_run.trace_json.find("\"durability_lag\""),
            std::string::npos);
  EXPECT_NE(async_run.trace_json.find("\"journal.async_acked\""),
            std::string::npos);
  // The sync twin records neither the event nor the async counters.
  cfg.journal.async_mode = false;
  const sim::ScenarioResult sync_run = sim::run_scenario(cfg);
  EXPECT_EQ(sync_run.trace_json.find("durability_lag"), std::string::npos);
  EXPECT_EQ(sync_run.trace_json.find("async"), std::string::npos);
  EXPECT_EQ(sync_run.journal.async_acked, 0u);
  EXPECT_EQ(sync_run.journal.async_background_charges, 0u);
  EXPECT_EQ(sync_run.journal.async_throttle_ticks, 0u);
}

TEST(JournalScenario, AsyncRunsAreDeterministic) {
  sim::ScenarioConfig cfg = journaled_crash_config(29);
  cfg.capture_trace = true;
  cfg.journal.async_mode = true;
  cfg.journal.flush_interval_ticks = 3;
  cfg.journal.async_high_water_entries = 32;
  cfg.faults.journal_stall(1, 100, 30);
  const sim::ScenarioResult a = sim::run_scenario(cfg);
  const sim::ScenarioResult b = sim::run_scenario(cfg);
  EXPECT_EQ(sim::to_json(a), sim::to_json(b));
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(JournalScenario, JournalStallIsSkippedWithoutAJournal) {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.n_clients = 4;
  cfg.scale = 0.05;
  cfg.max_ticks = 120;
  cfg.faults.journal_stall(0, 40, 20);
  const sim::ScenarioResult r = sim::run_scenario(cfg);
  EXPECT_EQ(r.faults.applied, 0u);
  EXPECT_EQ(r.faults.skipped, 1u);
}

// -- Replay-window conversion (regression) ----------------------------------
//
// The window used to be a plain ceil() of the modeled seconds, which (a)
// charged one full tick for replay_seconds == 0 and (b) rounded exact
// integer durations up a tick whenever floating-point noise left them a few
// ulps above the integer (2000 entries at 2000/s + base 1.0 is "3.0000...4"
// seconds and was billed 4 ticks).

TEST(ReplayWindow, ZeroSecondsChargesZeroTicks) {
  EXPECT_EQ(journal::replay_window_ticks(0.0), 0);
  EXPECT_EQ(journal::replay_window_ticks(-1.0), 0);
}

TEST(ReplayWindow, ExactIntegersDoNotRoundUp) {
  EXPECT_EQ(journal::replay_window_ticks(1.0), 1);
  EXPECT_EQ(journal::replay_window_ticks(3.0), 3);
  // 2000 durable entries at 2000/s plus the 1 s base, computed the way the
  // replay model computes it: noisy arithmetic a few ulps above 3.0.
  const double noisy = 0.1 + 0.2;  // 0.30000000000000004
  EXPECT_EQ(journal::replay_window_ticks(noisy * 10.0), 3);
}

TEST(ReplayWindow, FractionsStillRoundUp) {
  EXPECT_EQ(journal::replay_window_ticks(2.5), 3);
  EXPECT_EQ(journal::replay_window_ticks(0.2), 1);
  // Any genuinely positive duration costs at least one tick.
  EXPECT_EQ(journal::replay_window_ticks(1e-9), 1);
}

namespace {
/// Serves until saturation and returns how many ops fit in the open tick.
int drain_budget(mds::MdsServer& s) {
  int served = 0;
  while (s.try_serve()) ++served;
  return served;
}
}  // namespace

TEST(ReplayWindow, ZeroTickReplayInstallsNoPenalty) {
  mds::MdsServer s(0, /*capacity_iops=*/100.0);
  // A zero-length window must be a true no-op.  It used to max-merge its
  // penalty into the server anyway, so a later penalty-free window (e.g. a
  // standby activation with journaling off) served at half capacity.
  s.begin_replay(0, 0.5);
  EXPECT_FALSE(s.replaying());
  s.begin_tick(1.0);
  EXPECT_EQ(drain_budget(s), 100);

  s.begin_replay(2, 0.0);
  EXPECT_TRUE(s.replaying());
  s.begin_tick(1.0);
  EXPECT_EQ(drain_budget(s), 100) << "polluted by the zero-tick window";
}

TEST(ReplayWindow, PenaltyLastsExactlyTheWindow) {
  mds::MdsServer s(0, /*capacity_iops=*/100.0);
  s.begin_replay(journal::replay_window_ticks(2.0), 0.3);
  s.begin_tick(1.0);
  EXPECT_EQ(drain_budget(s), 70);  // window tick 1
  s.begin_tick(1.0);
  EXPECT_EQ(drain_budget(s), 70);  // window tick 2
  s.begin_tick(1.0);
  EXPECT_EQ(drain_budget(s), 100);  // window closed, full capacity
  EXPECT_FALSE(s.replaying());
}

}  // namespace
}  // namespace lunule
