#include "journal/replay.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lunule::journal {

namespace {

/// Deterministic namespace order for reconstructed authority sets.
bool ref_less(const fs::SubtreeRef& a, const fs::SubtreeRef& b) {
  if (a.dir != b.dir) return a.dir < b.dir;
  return a.frag < b.frag;
}

}  // namespace

ReplayResult replay_journal(const MdsJournal& j, EpochId now_epoch,
                            const JournalParams& p) {
  ReplayResult r;
  r.lost_entries = j.unflushed();
  r.acked_lost_entries = p.async_mode ? r.lost_entries : 0;

  // Prefix-consistency audit: every durable entry's dependency must itself
  // be durable.  The flush model commits whole prefixes, so a violation
  // here means the durable set became non-contiguous — state no replay
  // could order correctly.
  for (const JournalSegment& seg : j.segments()) {
    for (const JournalEntry& e : seg.entries) {
      if (e.seq > j.durable_seq() || e.dep_seq == 0) continue;
      if (e.dep_seq >= e.seq || e.dep_seq > j.durable_seq()) {
        ++r.dependency_violations;
      }
    }
  }

  // Start from the newest durable ESubtreeMap (trim always retains it).
  const Checkpoint* checkpoint = j.checkpoint(j.durable_subtree_map_seq());

  std::vector<fs::SubtreeRef> owned;
  if (checkpoint != nullptr) {
    owned = checkpoint->snapshot.owned;
    r.load_history = checkpoint->snapshot.load_history;
    r.checkpoint_epoch = checkpoint->epoch;
    r.entries_replayed = 1;
  }

  // Patch the snapshot with every later durable authority delta.  EUpdates
  // are replayed (they cost time) but do not move subtree bounds.
  const std::uint64_t from_seq = checkpoint != nullptr ? checkpoint->seq : 0;
  for (const JournalSegment& seg : j.segments()) {
    for (const JournalEntry& e : seg.entries) {
      if (e.seq <= from_seq || e.seq > j.durable_seq()) continue;
      ++r.entries_replayed;
      const fs::SubtreeRef ref{e.dir, e.frag};
      if (e.type == EntryType::kImportStart) {
        if (std::find(owned.begin(), owned.end(), ref) == owned.end()) {
          owned.push_back(ref);
        }
      } else if (e.type == EntryType::kExportCommit) {
        owned.erase(std::remove(owned.begin(), owned.end(), ref),
                    owned.end());
      }
    }
  }
  std::sort(owned.begin(), owned.end(), ref_less);
  r.owned = std::move(owned);

  // Replay-time model: nothing durable → instant (there is no journal to
  // open); otherwise a fixed base plus rate-limited entry scan.
  if (r.entries_replayed > 0) {
    r.replay_seconds =
        p.replay_base_seconds +
        static_cast<double>(r.entries_replayed) / p.replay_entries_per_second;
  }

  // Decay the checkpointed history across the replay gap: the forecast
  // signal aged one decay step per epoch the journal sat unplayed.
  if (!r.load_history.empty() && r.checkpoint_epoch >= 0) {
    const EpochId gap = std::max<EpochId>(0, now_epoch - r.checkpoint_epoch);
    const double scale = std::pow(p.history_decay_per_epoch,
                                  static_cast<double>(gap));
    for (double& v : r.load_history) v *= scale;
  }
  return r;
}

Tick replay_window_ticks(double replay_seconds) {
  if (replay_seconds <= 0.0) return 0;
  // Tolerate representation noise just above an integer boundary: a value
  // like 3.0000000000000004 is an exact 3-tick window, not a 4-tick one.
  const double eps = 4.0 * std::numeric_limits<double>::epsilon() *
                     std::max(1.0, replay_seconds);
  const auto ticks = static_cast<Tick>(std::ceil(replay_seconds - eps));
  return std::max<Tick>(ticks, 1);
}

}  // namespace lunule::journal
