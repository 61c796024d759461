// Per-epoch metric collection.
//
// Regardless of which balancer runs, the collector keeps one row per closed
// epoch holding what the paper's time-series figures plot: every rank's
// load, the Imbalance Factor of the alive ranks (the IF model of Eq. 3 —
// the paper uses IF as the *metric* of balance quality for all balancers,
// Figs. 6, 9) and the cumulative migrated inodes (Fig. 4).  Each figure
// series is a fold over the rows:
//   * per-MDS IOPS (Figs. 3, 10, 12): one rank's load,
//   * IF over time (Figs. 6, 9),
//   * aggregate cluster IOPS (Figs. 7, 12, 13): the row's load sum,
//   * cumulative migrated inodes (Fig. 4),
// and so are the run summaries: mean IF, peak aggregate IOPS and the
// re-convergence time after a crash.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/imbalance_factor.h"
#include "mds/cluster.h"

namespace lunule::sim {

/// One closed epoch.
struct EpochSample {
  /// Each rank's load over the epoch, indexed by rank.  A rank added later
  /// in the run has no entry yet; its column reads 0 here.
  std::vector<Load> loads;
  /// IF over the ranks that were up when the epoch closed.
  double imbalance_factor = 0.0;
  /// Inodes migrated since the start of the run.
  std::uint64_t migrated_inodes = 0;
};

/// Name of rank `rank`'s per-MDS column: MDS-1 for rank 0.
[[nodiscard]] std::string mds_name(std::size_t rank);

class MetricsCollector {
 public:
  /// Epochs dropped before averaging IF: every run starts with the whole
  /// namespace on one rank (IF near 1) until the first exports land.
  static constexpr std::size_t kWarmupEpochs = 3;

  MetricsCollector() = default;
  MetricsCollector(double epoch_seconds, core::IfParams if_params);

  /// Samples one closed epoch.
  void on_epoch(const mds::MdsCluster& cluster, std::span<const Load> loads);

  [[nodiscard]] std::span<const EpochSample> rows() const { return rows_; }
  [[nodiscard]] std::size_t epochs() const { return rows_.size(); }
  [[nodiscard]] double epoch_seconds() const { return epoch_seconds_; }
  /// Ranks in the last epoch, one per-MDS column each (a cluster only
  /// grows, so no earlier row is wider).
  [[nodiscard]] std::size_t ranks() const {
    return rows_.empty() ? 0 : rows_.back().loads.size();
  }

  // -- Columns: one value per epoch ------------------------------------
  [[nodiscard]] std::vector<double> rank_iops(std::size_t rank) const;
  [[nodiscard]] std::vector<double> if_values() const;
  [[nodiscard]] std::vector<double> aggregate_iops() const;
  [[nodiscard]] std::vector<double> migrated_inodes() const;

  // -- Run summaries ---------------------------------------------------
  /// Mean IF after dropping the first `skip` warm-up epochs.
  [[nodiscard]] double mean_if(std::size_t skip = kWarmupEpochs) const;
  /// Peak aggregate cluster throughput over the run (0 with no epoch).
  [[nodiscard]] double peak_aggregate_iops() const;
  /// Seconds from `first_crash_tick` until the end of the first epoch, from
  /// the crash's own epoch on, whose IF is at or under the Lunule trigger
  /// threshold; -1 without a crash (tick < 0) or when IF never returns.
  [[nodiscard]] double reconverge_seconds(Tick first_crash_tick) const;

 private:
  double epoch_seconds_ = 1.0;
  core::IfParams if_params_;
  std::vector<EpochSample> rows_;
};

}  // namespace lunule::sim
