// Elastic MDS pool: load-signal autoscaling over the cluster membership.
//
// Lunule balances load across a *fixed* set of MDS ranks; λFS-style
// elasticity adds the other axis — growing and shrinking the serving set
// itself on demand.  The Autoscaler is a deterministic epoch-boundary
// policy: it observes the same per-epoch load signals the balancers do
// (alive-set utilization, per-rank saturation, imbalance between ranks)
// and drives three mechanisms the repo already has:
//   * scale-up adopts a cold standby via the journal-replay cold-start
//     path (`MdsCluster::activate`: base replay window + capacity
//     penalty), so capacity is not free the tick it is requested;
//   * scale-down first *drains* the victim — its subtrees leave through
//     the ordinary migration engine (lag, freeze, hot-abort and all) —
//     and only retires the rank once it owns nothing;
//   * hysteresis + cooldown keep the pool from flapping on noisy epochs.
//
// Determinism: decisions are a pure function of the epoch's load vector
// and the cluster state; no clocks, no randomness.  With `enabled` false
// (the default) the autoscaler is never constructed and every trace is
// byte-identical to the fixed-pool behavior.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "mds/cluster.h"

namespace lunule::mds {

struct AutoscalerParams {
  bool enabled = false;
  /// Ranks serving at simulation start (clamped to [min_ranks, n_mds]);
  /// 0 means "start with min_ranks".
  std::size_t initial_active = 0;
  /// The pool never shrinks below this many serving ranks.
  std::size_t min_ranks = 1;
  /// The pool never grows beyond this many serving ranks (0 = n_mds).
  std::size_t max_ranks = 0;
  /// Scale up when alive-set utilization (aggregate load / aggregate
  /// capacity) exceeds this, or any single rank saturates.
  double scale_up_utilization = 0.75;
  /// Scale down when alive-set utilization falls below this.
  double scale_down_utilization = 0.35;
  /// A rank serving above this fraction of its capacity counts as
  /// saturated: a scale-up signal on its own (per-rank IOPS debt), and a
  /// veto on scale-down (the pool is imbalanced, not oversized — shedding
  /// a rank would make the hotspot worse, not cheaper).
  double saturation_utilization = 0.95;
  /// Epochs a signal must persist before it triggers (debounce).
  int hysteresis_epochs = 2;
  /// Epochs after any scale event before the next may trigger.
  int cooldown_epochs = 3;
};

/// The autoscaler's own tallies; scale-ups and scale-downs are the
/// cluster's (MdsCluster::elasticity()).
struct AutoscalerStats {
  /// Epochs spent with a drain in flight (drain latency, in epochs).
  std::uint64_t drain_epochs = 0;
  /// Drain-sweep exports handed to the migration engine.
  std::uint64_t drain_exports_submitted = 0;
};

class Autoscaler {
 public:
  explicit Autoscaler(AutoscalerParams params);

  /// Runs one epoch-boundary decision against the epoch's closed loads
  /// (`loads[r]` = rank r's IOPS over the epoch, zero for down ranks).
  /// Called by the simulation right after the balancer's own on_epoch.
  void on_epoch(MdsCluster& cluster, std::span<const Load> loads);

  [[nodiscard]] const AutoscalerStats& stats() const { return stats_; }
  [[nodiscard]] const AutoscalerParams& params() const { return params_; }
  /// Rank currently draining for scale-down, or kNoMds.
  [[nodiscard]] MdsId draining_rank() const { return draining_; }

 private:
  /// Clamped upper bound for this cluster.
  [[nodiscard]] std::size_t max_ranks_for(const MdsCluster& cluster) const;
  /// Advances an in-progress drain: re-submits the victim's remaining
  /// subtrees and retires it once empty.
  void pump_drain(MdsCluster& cluster, std::span<const Load> loads);

  AutoscalerParams params_;
  AutoscalerStats stats_;
  MdsId draining_ = kNoMds;
  int up_streak_ = 0;
  int down_streak_ = 0;
  int cooldown_ = 0;
};

}  // namespace lunule::mds
