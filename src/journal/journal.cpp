#include "journal/journal.h"

#include "common/assert.h"

namespace lunule::journal {

std::uint64_t entry_bytes(const JournalEntry& e) {
  switch (e.type) {
    case EntryType::kUpdate:
      return 512;  // dentry + inode + lock state of one mutation
    case EntryType::kExportCommit:
    case EntryType::kImportStart:
      return 256;  // subtree bound + peer handshake record
    case EntryType::kSubtreeMap:
      // Envelope plus one bound record per owned unit and one double per
      // checkpointed load sample.
      return 64 + 48 * static_cast<std::uint64_t>(e.snapshot.owned.size()) +
             8 * static_cast<std::uint64_t>(e.snapshot.load_history.size());
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
  e.seq = ++seq_;
  // Dependency stamping: a checkpoint depends on the whole prefix before
  // it; a dir-scoped entry depends on the newest earlier entry touching
  // the same directory (create-before-child-create, export-commit-before-
  // dependent-update).  Stamped in every mode so sync and async journals
  // carry identical entries — only the cost routing differs.
  if (e.type == EntryType::kSubtreeMap) {
    e.dep_seq = e.seq - 1;
  } else if (e.dir != kNoDir) {
    const auto it = last_dir_seq_.find(e.dir);
    e.dep_seq = it != last_dir_seq_.end() ? it->second : 0;
    last_dir_seq_[e.dir] = e.seq;
  }
  if (params_.async_mode) ++async_acked_;
  if (segments_.empty() ||
      segments_.back().entries.size() >= params_.segment_entries) {
    segments_.emplace_back();
    segments_.back().entries.reserve(params_.segment_entries);
  }
  if (e.type == EntryType::kSubtreeMap) map_seq_ = e.seq;
  bytes_ += entry_bytes(e);
  segments_.back().entries.push_back(std::move(e));
  ++retained_;
  ++appends_;
  return seq_;
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
  trimmed_ += dropped;
  return dropped;
}

void MdsJournal::reset() {
  segments_.clear();
  retained_ = 0;
  durable_seq_ = seq_;
  map_seq_ = 0;
  durable_map_seq_ = 0;
  stall_until_ = 0;
  last_flush_tick_ = -1;
  last_dir_seq_.clear();
}

}  // namespace lunule::journal
