// A single simulated metadata server (MDS daemon).
//
// Each MDS can serve a bounded number of metadata operations per simulated
// second (its capacity, corresponding to the paper's constant C — "the
// maximal IOPS that a single MDS theoretically could achieve", Eq. 2).  Per
// epoch it reports its observed load (served IOPS) and keeps a short load
// history from which Algorithm 1's linear-regression forecast (`fld`) is
// computed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace lunule::mds {

class MdsServer {
 public:
  MdsServer(MdsId id, double capacity_iops);

  [[nodiscard]] MdsId id() const { return id_; }
  /// Theoretical maximum IOPS (the paper's C).
  [[nodiscard]] double capacity() const { return capacity_; }

  // -- Liveness and degradation (fault injection) -------------------------
  /// An up server serves normally; a down one has a zero budget every tick
  /// until revived.  Authority hand-off is the cluster's job (fail_over).
  [[nodiscard]] bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }
  /// Persistent capacity multiplier in (0, 1] modelling a slow node
  /// (thermal throttling, a noisy neighbour, a failing disk under the
  /// journal).  Composes with the per-tick migration penalty.
  [[nodiscard]] double degrade_factor() const { return degrade_; }
  void set_degrade_factor(double f);
  /// Clears the load history (a recovered MDS replays its journal and
  /// rejoins with no usable load record).
  void reset_history();

  // -- Journal coupling (fault recovery) ----------------------------------
  /// Queues `ops` of journal I/O cost against the next tick's budget: the
  /// MDLog's appends and group commits are asynchronous, so their cost
  /// lands after the fact, competing with the next tick's foreground
  /// service.
  void add_journal_debt(double ops) { journal_debt_ += ops; }

  /// Opens a replay window: for the next `ticks` ticks this server loses
  /// `penalty` of its effective capacity while it replays an adopted
  /// journal.  Overlapping windows keep the longer remainder and the
  /// stronger penalty.
  void begin_replay(Tick ticks, double penalty);
  [[nodiscard]] bool replaying() const { return replay_ticks_ > 0; }

  /// Merges a replayed (journal-checkpointed, decayed) load history into
  /// this server's own, aligned at the most recent epoch: the adopted
  /// subtrees' historical load now belongs to this rank, so its forecast
  /// regression sees the combined past instead of starting amnesiac.
  void restore_history(std::span<const double> replayed);

  // -- Tick-level service ------------------------------------------------
  /// Opens a tick with the given effective-capacity factor in (0, 1]
  /// (reduced while the server participates in a migration).  A down
  /// server opens with a zero budget regardless of the factor.
  void begin_tick(double capacity_factor);

  /// Attempts to consume `cost` service units this tick.  Returns false if
  /// the server is saturated.
  bool try_serve(double cost = 1.0);

  /// Consumes capacity for a request forward (redirect) without counting it
  /// as a served metadata operation.  Never blocks: if the budget is
  /// exhausted the forward still happens, it just eats into goodput.
  void charge_forward(double cost);

  // -- Epoch-level accounting ---------------------------------------------
  /// Closes an epoch spanning `epoch_seconds` and records the load sample.
  void close_epoch(double epoch_seconds);

  /// IOPS observed during the last closed epoch.
  [[nodiscard]] Load current_load() const { return load_; }

  /// Recent per-epoch loads, oldest first (bounded window).
  [[nodiscard]] std::span<const double> load_history() const {
    return history_;
  }

  [[nodiscard]] std::uint64_t served_in_open_epoch() const {
    return served_epoch_;
  }
  [[nodiscard]] std::uint64_t total_served() const { return total_served_; }
  [[nodiscard]] std::uint64_t total_forwards() const {
    return total_forwards_;
  }

 private:
  static constexpr std::size_t kHistoryEpochs = 12;

  MdsId id_;
  double capacity_;
  bool up_ = true;
  double degrade_ = 1.0;
  double budget_ = 0.0;
  double journal_debt_ = 0.0;
  Tick replay_ticks_ = 0;
  double replay_penalty_ = 0.0;
  std::uint64_t served_epoch_ = 0;
  std::uint64_t total_served_ = 0;
  std::uint64_t total_forwards_ = 0;
  Load load_ = 0.0;
  std::vector<double> history_;
};

}  // namespace lunule::mds
