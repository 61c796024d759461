#include "sim/metrics.h"

#include "common/stats.h"
#include "core/lunule_balancer.h"

namespace lunule::sim {

namespace {

/// One value per row, in epoch order.
template <typename Cell>
std::vector<double> column(std::span<const EpochSample> rows, Cell cell) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const EpochSample& s : rows) out.push_back(cell(s));
  return out;
}

}  // namespace

std::string mds_name(std::size_t rank) {
  return "MDS-" + std::to_string(rank + 1);
}

MetricsCollector::MetricsCollector(double epoch_seconds,
                                   core::IfParams if_params)
    : epoch_seconds_(epoch_seconds), if_params_(if_params) {}

void MetricsCollector::on_epoch(const mds::MdsCluster& cluster,
                                std::span<const Load> loads) {
  // The IF spans alive ranks only; a crashed rank's zero load is a fault
  // symptom, not an imbalance the balancer could act on.  (The row keeps
  // the zeros — figures should show the dip.)
  std::vector<double> alive;
  alive.reserve(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (cluster.is_up(static_cast<MdsId>(i))) alive.push_back(loads[i]);
  }
  rows_.push_back(EpochSample{
      .loads = std::vector<Load>(loads.begin(), loads.end()),
      .imbalance_factor = core::imbalance_factor(alive, if_params_),
      .migrated_inodes = cluster.migration().total_migrated_inodes()});
}

std::vector<double> MetricsCollector::rank_iops(std::size_t rank) const {
  return column(rows_, [rank](const EpochSample& s) {
    return rank < s.loads.size() ? s.loads[rank] : 0.0;
  });
}

std::vector<double> MetricsCollector::if_values() const {
  return column(rows_,
                [](const EpochSample& s) { return s.imbalance_factor; });
}

std::vector<double> MetricsCollector::aggregate_iops() const {
  return column(rows_, [](const EpochSample& s) { return sum(s.loads); });
}

std::vector<double> MetricsCollector::migrated_inodes() const {
  return column(rows_, [](const EpochSample& s) {
    return static_cast<double>(s.migrated_inodes);
  });
}

double MetricsCollector::mean_if(std::size_t skip) const {
  const std::vector<double> vals = if_values();
  if (vals.size() <= skip) return 0.0;
  return mean(std::span<const double>(vals).subspan(skip));
}

double MetricsCollector::peak_aggregate_iops() const {
  const std::vector<double> agg = aggregate_iops();
  return agg.empty() ? 0.0 : max_value(agg);
}

double MetricsCollector::reconverge_seconds(Tick first_crash_tick) const {
  if (first_crash_tick < 0) return -1.0;
  const double threshold = core::LunuleParams{}.if_threshold;
  const auto crash_epoch = static_cast<std::size_t>(
      static_cast<double>(first_crash_tick) / epoch_seconds_);
  for (std::size_t e = crash_epoch; e < rows_.size(); ++e) {
    if (rows_[e].imbalance_factor > threshold) continue;
    return static_cast<double>(e + 1) * epoch_seconds_ -
           static_cast<double>(first_crash_tick);
  }
  return -1.0;
}

}  // namespace lunule::sim
