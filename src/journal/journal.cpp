#include "journal/journal.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace lunule::journal {

namespace {

bool seq_before(const Checkpoint& c, std::uint64_t seq) { return c.seq < seq; }

}  // namespace

std::uint64_t entry_bytes(EntryType type, std::size_t owned_units,
                          std::size_t load_samples) {
  switch (type) {
    case EntryType::kUpdate:
      return 512;  // dentry + inode + lock state of one mutation
    case EntryType::kExportCommit:
    case EntryType::kImportStart:
      return 256;  // subtree bound + peer handshake record
    case EntryType::kSubtreeMap:
      // Envelope plus one bound record per owned unit and one double per
      // checkpointed load sample.
      return 64 + 48 * static_cast<std::uint64_t>(owned_units) +
             8 * static_cast<std::uint64_t>(load_samples);
  }
  return 0;
}

MdsJournal::MdsJournal(MdsId rank, JournalParams params)
    : rank_(rank), params_(params) {
  LUNULE_CHECK(params_.segment_entries >= 1);
  LUNULE_CHECK(params_.flush_interval_ticks >= 1);
  LUNULE_CHECK(params_.max_unflushed_entries >= 1);
  LUNULE_CHECK(params_.append_cost_ops >= 0.0);
  LUNULE_CHECK(params_.flush_cost_ops >= 0.0);
  LUNULE_CHECK(params_.replay_entries_per_second > 0.0);
  LUNULE_CHECK(params_.replay_base_seconds >= 0.0);
  LUNULE_CHECK(params_.replay_capacity_penalty >= 0.0 &&
               params_.replay_capacity_penalty < 1.0);
  LUNULE_CHECK(params_.history_decay_per_epoch > 0.0 &&
               params_.history_decay_per_epoch <= 1.0);
  LUNULE_CHECK(params_.async_high_water_entries >= 1);
}

std::uint64_t MdsJournal::append(JournalEntry e) {
  LUNULE_CHECK(e.type != EntryType::kSubtreeMap);
  e.seq = ++seq_;
  // Dependency stamping: a dir-scoped entry depends on the newest earlier
  // entry touching the same directory (create-before-child-create, export-
  // commit-before-dependent-update); a directory's first entry reads the
  // probe's fresh 0.  Stamped in every mode so sync and async journals
  // carry identical entries — only the cost routing differs.
  if (e.dir != kNoDir) {
    if (e.dir >= last_dir_seq_.size()) last_dir_seq_.resize(e.dir + 1, 0);
    std::uint64_t& last = last_dir_seq_[e.dir];
    e.dep_seq = last;
    last = e.seq;
  }
  bytes_ += entry_bytes(e.type);
  push(e);
  return seq_;
}

std::uint64_t MdsJournal::append_checkpoint(Tick tick, EpochId epoch,
                                            SubtreeSnapshot snapshot) {
  // A checkpoint depends on the whole prefix before it.
  const std::uint64_t seq = ++seq_;
  const JournalEntry e{.seq = seq,
                       .dep_seq = seq - 1,
                       .tick = tick,
                       .epoch = epoch,
                       .type = EntryType::kSubtreeMap};
  map_seq_ = seq;
  bytes_ += entry_bytes(e.type, snapshot.owned.size(),
                        snapshot.load_history.size());
  push(e);
  checkpoints_.push_back(
      {.seq = seq, .epoch = epoch, .snapshot = std::move(snapshot)});
  return seq;
}

void MdsJournal::push(const JournalEntry& e) {
  if (params_.async_mode) ++async_acked_;
  if (segments_.empty() ||
      segments_.back().entries.size() >= params_.segment_entries) {
    segments_.emplace_back();
    segments_.back().entries.reserve(params_.segment_entries);
  }
  segments_.back().entries.push_back(e);
  ++retained_;
  ++appends_;
}

const Checkpoint* MdsJournal::checkpoint(std::uint64_t seq) const {
  const auto it = std::lower_bound(checkpoints_.begin(), checkpoints_.end(),
                                   seq, seq_before);
  return it != checkpoints_.end() && it->seq == seq ? &*it : nullptr;
}

bool MdsJournal::flush(Tick now) {
  if (stalled(now)) return false;
  last_flush_tick_ = now;
  if (durable_seq_ == seq_) return false;
  durable_seq_ = seq_;
  durable_map_seq_ = map_seq_;
  ++flushes_;
  return true;
}

bool MdsJournal::maybe_flush(Tick now) {
  if (last_flush_tick_ >= 0 &&
      now - last_flush_tick_ < params_.flush_interval_ticks) {
    return false;
  }
  return flush(now);
}

std::size_t MdsJournal::trim() {
  if (durable_map_seq_ == 0) return 0;
  std::size_t dropped = 0;
  // Never trim the tail segment: the segment holding the newest durable
  // ESubtreeMap (and anything after it) must survive for replay.
  while (segments_.size() > 1 &&
         segments_.front().entries.back().seq < durable_map_seq_) {
    retained_ -= segments_.front().entries.size();
    segments_.pop_front();
    ++dropped;
  }
  // Drop the payloads of the map entries that left with those segments.
  checkpoints_.erase(
      checkpoints_.begin(),
      std::lower_bound(checkpoints_.begin(), checkpoints_.end(),
                       segments_.front().entries.front().seq, seq_before));
  trimmed_ += dropped;
  return dropped;
}

void MdsJournal::reset() {
  segments_.clear();
  checkpoints_.clear();
  retained_ = 0;
  durable_seq_ = seq_;
  map_seq_ = 0;
  durable_map_seq_ = 0;
  stall_until_ = 0;
  last_flush_tick_ = -1;
  last_dir_seq_.clear();
}

}  // namespace lunule::journal
