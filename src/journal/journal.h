// The per-rank, append-only metadata journal (CephFS MDLog analogue).
//
// Each MDS rank owns one MdsJournal: a sequence of fixed-size segments of
// typed entries with monotonic sequence numbers.  Appends land in memory
// first; a *flush* makes everything up to the current sequence durable
// (CephFS's group commit to the journal objects).  On a crash, only the
// durable prefix survives — entries past the last flush are genuinely lost,
// which is exactly the recovery behavior the fault benches measure.
//
// Segment lifecycle: a new segment opens every `segment_entries` appends.
// Segments whose entries all precede the newest *durable* ESubtreeMap are
// fully covered by that checkpoint and are trimmed (CephFS's LogSegment
// expiry); the journal length that a take-over must replay is therefore
// bounded by the checkpoint cadence, not the run length.  Entries are
// fixed-size records; each retained ESubtreeMap's payload is held beside
// the segments, so a trim frees whole segments in O(segments).
//
// Cost model: journaling consumes a slice of the owning rank's IOPS budget
// (`append_cost_ops` per entry, `flush_cost_ops` per group commit), charged
// by the cluster as journal debt against the next tick's budget — so
// journaling overhead is visible in throughput benches.  A stalled journal
// (the `journal_stall` fault) stops flushing; once the un-flushed backlog
// exceeds `max_unflushed_entries`, mutating operations are refused
// (journal-full backpressure), and a crash during the stall loses the whole
// backlog.
//
// Lifetime statistics (appends, bytes, flushes, trims) are monotonic and
// survive reset(); the cluster's journal.* counters read their sums.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/types.h"
#include "journal/journal_entry.h"

namespace lunule::journal {

struct JournalParams {
  /// Master switch.  Off by default: every existing scenario, bench and
  /// trace is byte-identical to the journal-free behavior.
  bool enabled = false;
  /// Entries per fixed-size segment.
  std::uint32_t segment_entries = 512;
  /// Ticks between group commits (1 = flush every tick, like CephFS's
  /// continuously-flushing MDLog).
  Tick flush_interval_ticks = 1;
  /// Un-flushed backlog (entries) beyond which mutating operations are
  /// refused until a flush drains it (journal-full backpressure).
  std::uint64_t max_unflushed_entries = 20000;
  /// IOPS-budget slice consumed per appended entry / per flush; charged as
  /// journal debt against the owning rank's next tick.
  double append_cost_ops = 0.04;
  double flush_cost_ops = 1.0;
  /// Replay-time model: a take-over replays the durable journal at this
  /// rate, plus a fixed base (rank rebind + journal open).
  double replay_entries_per_second = 2000.0;
  double replay_base_seconds = 1.0;
  /// Capacity fraction a rank loses while it replays an adopted journal.
  double replay_capacity_penalty = 0.3;
  /// Per-epoch decay applied to a checkpointed load history across the
  /// replay gap (the forecast signal goes stale while the journal sat
  /// unplayed).
  double history_decay_per_epoch = 0.7;
  /// Asynchronous completion mode (AsyncFS direction): mutating operations
  /// complete to the client at in-memory apply and journal IOPS debt is
  /// charged to a background durability lane instead of the foreground
  /// budget; `flush_interval_ticks` becomes the durability lag, not a
  /// completion gate (epoch checkpoints are no longer force-flushed).  Off
  /// by default: sync-mode runs are byte-identical to the pre-async
  /// behavior.  A crash in async mode loses acknowledged-but-unflushed ops
  /// — the documented loss window replay reports as `acked_lost_entries`.
  bool async_mode = false;
  /// Un-flushed backlog beyond which the background durability lane starts
  /// throttling foreground service: journal costs are charged as ordinary
  /// foreground debt until a group commit drains the backlog below the
  /// mark.  Only meaningful in async mode.
  std::uint64_t async_high_water_entries = 4096;
};

/// One fixed-size run of entries (`MdsJournal` trims whole segments).
struct JournalSegment {
  std::vector<JournalEntry> entries;
};

/// The payload of one retained ESubtreeMap entry, keyed by the entry's seq.
struct Checkpoint {
  std::uint64_t seq = 0;
  EpochId epoch = -1;
  SubtreeSnapshot snapshot;
};

class MdsJournal {
 public:
  MdsJournal(MdsId rank, JournalParams params);

  [[nodiscard]] MdsId rank() const { return rank_; }
  [[nodiscard]] const JournalParams& params() const { return params_; }

  /// Stamps `e` (an EUpdate, EExportCommit or EImportStart) with the next
  /// sequence number and appends it, opening a new segment when the tail
  /// segment is full.  Returns the assigned seq.
  std::uint64_t append(JournalEntry e);

  /// Appends an ESubtreeMap entry stamped (`tick`, `epoch`) and keeps its
  /// payload beside the segments until trim() or reset() drops the entry.
  /// Returns the assigned seq.
  std::uint64_t append_checkpoint(Tick tick, EpochId epoch,
                                  SubtreeSnapshot snapshot);

  /// True when the un-flushed backlog is at the cap: mutating operations
  /// must stall until a flush succeeds.  The cap binds in async mode too —
  /// acknowledgement may precede durability, but the backlog stays bounded.
  [[nodiscard]] bool full() const {
    return unflushed() >= params_.max_unflushed_entries;
  }

  /// Async mode only: the un-flushed backlog crossed the high-water mark,
  /// so the background durability lane must throttle foreground service
  /// (journal costs revert to foreground debt until the backlog drains).
  [[nodiscard]] bool over_high_water() const {
    return params_.async_mode &&
           unflushed() >= params_.async_high_water_entries;
  }

  /// Group commit: everything appended so far becomes durable.  Returns
  /// false (and does nothing) when nothing is pending or the journal is
  /// inside a stall window at `now`.
  bool flush(Tick now);

  /// Cadenced flush driven by the cluster's tick loop: flushes when
  /// `flush_interval_ticks` have elapsed since the last successful flush.
  bool maybe_flush(Tick now);

  /// Fault injection: no flush can complete before tick `until` (the
  /// backing device stalled).  Appends continue and the backlog grows.
  void stall_until(Tick until) { stall_until_ = until; }
  [[nodiscard]] bool stalled(Tick now) const { return now < stall_until_; }

  /// Drops leading segments wholly covered by the newest durable
  /// ESubtreeMap.  Returns the number of segments trimmed.
  std::size_t trim();

  /// A revived rank restarts with an empty journal (the old incarnation's
  /// content was consumed by the take-over replay).  Sequence numbers keep
  /// counting and lifetime statistics are preserved.
  void reset();

  // -- Content ------------------------------------------------------------
  [[nodiscard]] const std::deque<JournalSegment>& segments() const {
    return segments_;
  }
  /// Payloads of the retained ESubtreeMap entries, in seq order.
  [[nodiscard]] std::span<const Checkpoint> checkpoints() const {
    return checkpoints_;
  }
  /// The retained ESubtreeMap entry `seq`'s checkpoint, or null when `seq`
  /// is not a retained map entry.  The pointer does not survive the next
  /// append_checkpoint(), trim() or reset().
  [[nodiscard]] const Checkpoint* checkpoint(std::uint64_t seq) const;
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] std::uint64_t durable_seq() const { return durable_seq_; }
  [[nodiscard]] std::uint64_t unflushed() const {
    return seq_ - durable_seq_;
  }
  /// Seq of the newest durable ESubtreeMap (0 = none yet).
  [[nodiscard]] std::uint64_t durable_subtree_map_seq() const {
    return durable_map_seq_;
  }
  [[nodiscard]] std::uint64_t entries_retained() const { return retained_; }
  /// Tick of the last successful (or no-op) group commit, -1 before any.
  [[nodiscard]] Tick last_flush_tick() const { return last_flush_tick_; }

  // -- Background durability lane (async mode) -----------------------------
  /// Absorbs an IOPS charge into the background lane instead of the
  /// foreground budget.
  void charge_background(double ops) {
    background_ops_ += ops;
    ++background_charges_;
  }
  /// Records one tick spent throttling foreground service because the
  /// backlog sat over the high-water mark.
  void note_throttle_tick() { ++throttle_ticks_; }

  // -- Lifetime statistics (monotonic, survive reset) ----------------------
  [[nodiscard]] std::uint64_t appends() const { return appends_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::uint64_t segments_trimmed() const { return trimmed_; }
  /// Entries acknowledged to clients before they were durable (async mode
  /// appends; always 0 in sync mode).
  [[nodiscard]] std::uint64_t async_acked() const { return async_acked_; }
  /// IOPS debt absorbed by the background lane, and the number of charges.
  [[nodiscard]] double background_ops() const { return background_ops_; }
  [[nodiscard]] std::uint64_t background_charges() const {
    return background_charges_;
  }
  /// Ticks the backlog sat over the high-water mark (foreground throttled).
  [[nodiscard]] std::uint64_t throttle_ticks() const {
    return throttle_ticks_;
  }

 private:
  /// Opens a new segment when needed, then stores `e`.
  void push(const JournalEntry& e);

  MdsId rank_;
  JournalParams params_;
  std::deque<JournalSegment> segments_;
  /// One record per retained ESubtreeMap entry, seq order (a vector, so a
  /// journal that never checkpoints allocates nothing for it).
  std::vector<Checkpoint> checkpoints_;
  std::uint64_t seq_ = 0;
  std::uint64_t durable_seq_ = 0;
  /// Newest ESubtreeMap seq appended / made durable (0 = none).
  std::uint64_t map_seq_ = 0;
  std::uint64_t durable_map_seq_ = 0;
  std::uint64_t retained_ = 0;
  Tick stall_until_ = 0;
  Tick last_flush_tick_ = -1;
  /// Newest seq per directory (0 = none yet), for dependency stamping:
  /// dense, indexed by DirId and grown on demand to the highest journaled
  /// id, so a stamp is one indexed load.  Cleared on reset: the next
  /// incarnation's entries owe nothing to the consumed log.
  std::vector<std::uint64_t> last_dir_seq_;
  std::uint64_t appends_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t trimmed_ = 0;
  std::uint64_t async_acked_ = 0;
  std::uint64_t background_charges_ = 0;
  double background_ops_ = 0.0;
  std::uint64_t throttle_ticks_ = 0;
};

}  // namespace lunule::journal
