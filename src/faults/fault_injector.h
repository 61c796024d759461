// Applies a FaultPlan to a live MdsCluster at tick boundaries.
//
// The injector expands the plan into primitive actions (down / up / degrade
// / abort) sorted by tick — a crash with a recovery window becomes a down
// action plus an up action `duration` ticks later — and replays them as the
// simulation asks for each tick.  Everything is deterministic: ties apply in
// plan order, survivor choice at fail-over is the cluster's deterministic
// least-taken rule, and no randomness or wall clock is involved.
//
// One safety rule: a crash that would down the *last* alive MDS is skipped
// (and counted), because a cluster with no metadata servers cannot make
// progress and the simulation would spin pointlessly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "faults/fault_plan.h"
#include "mds/cluster.h"

namespace lunule::faults {

/// Lifetime totals of an applied fault plan: every crash's fail-over
/// summed (`aborted_migrations` also counts forced aborts; the journal
/// replay members stay zero when the cluster journals nothing), plus the
/// injector's own tallies.
struct FaultTotals : mds::MdsCluster::FailoverStats {
  std::uint64_t applied = 0;
  /// Crashes refused (the last alive MDS, or one already down) and
  /// journal stalls on a cluster without a journal.
  std::uint64_t skipped = 0;
};

class FaultInjector {
 public:
  /// The plan must already be validated; construction sorts its expansion.
  FaultInjector(mds::MdsCluster& cluster, const FaultPlan& plan);

  /// Applies every action scheduled at or before `now`.  Call once per tick
  /// *before* the cluster opens the tick, so budgets and authority reflect
  /// the fault from the first affected tick onward.
  void on_tick(Tick now);

  /// True once every action has been applied (cheap early-out for the hot
  /// simulation loop).
  [[nodiscard]] bool done() const { return next_ >= actions_.size(); }

  /// Lifetime totals of the plan applied so far.
  [[nodiscard]] const FaultTotals& totals() const { return totals_; }

 private:
  enum class Action : std::uint8_t {
    kDown,
    kUp,
    kDegrade,
    kAbort,
    kStallJournal,
  };
  struct Step {
    Tick at = 0;
    std::size_t seq = 0;  // stable tie-break: expansion order
    Action action = Action::kDown;
    MdsId mds = kNoMds;
    double factor = 1.0;
    Tick duration = 0;  // journal stall window
  };

  void apply(const Step& s);

  mds::MdsCluster& cluster_;
  std::vector<Step> actions_;
  std::size_t next_ = 0;
  FaultTotals totals_;
};

}  // namespace lunule::faults
