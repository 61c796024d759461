#include "mds/autoscaler.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"

namespace lunule::mds {

Autoscaler::Autoscaler(AutoscalerParams params) : params_(params) {
  LUNULE_CHECK(params_.min_ranks >= 1);
  LUNULE_CHECK(params_.scale_up_utilization > 0.0 &&
               params_.scale_up_utilization <= 1.0);
  LUNULE_CHECK(params_.scale_down_utilization >= 0.0 &&
               params_.scale_down_utilization < params_.scale_up_utilization);
  LUNULE_CHECK(params_.saturation_utilization > 0.0 &&
               params_.saturation_utilization <= 1.0);
  LUNULE_CHECK(params_.hysteresis_epochs >= 1);
  LUNULE_CHECK(params_.cooldown_epochs >= 0);
}

std::size_t Autoscaler::max_ranks_for(const MdsCluster& cluster) const {
  const std::size_t n = cluster.size();
  return params_.max_ranks == 0 ? n : std::min(params_.max_ranks, n);
}

void Autoscaler::on_epoch(MdsCluster& cluster, std::span<const Load> loads) {
  if (!params_.enabled) return;
  if (cooldown_ > 0) --cooldown_;

  // Epoch signals over the serving set.  The draining rank still serves and
  // still counts: its load has to fit on the survivors before it may leave.
  const double capacity = cluster.params().mds_capacity_iops;
  double sum = 0.0;
  double max_load = 0.0;
  std::size_t alive = 0;
  for (std::size_t r = 0; r < loads.size(); ++r) {
    if (!cluster.is_up(static_cast<MdsId>(r))) continue;
    sum += loads[r];
    max_load = std::max(max_load, loads[r]);
    ++alive;
  }
  if (alive == 0) return;
  const double util = sum / (static_cast<double>(alive) * capacity);
  // Per-rank saturation is a scale-up signal of its own (a hotspot's queue
  // keeps growing however idle its peers are) and a veto on scale-down
  // (the pool is imbalanced, not oversized).
  const bool saturated = max_load >= params_.saturation_utilization * capacity;
  const bool up_signal = util > params_.scale_up_utilization || saturated;
  const bool down_signal =
      util < params_.scale_down_utilization && !saturated;
  up_streak_ = up_signal ? up_streak_ + 1 : 0;
  down_streak_ = down_signal ? down_streak_ + 1 : 0;

  if (draining_ != kNoMds) {
    ++stats_.drain_epochs;
    if (!cluster.is_up(draining_)) {
      // Crashed mid-drain: the failover already redistributed everything.
      draining_ = kNoMds;
    } else if (up_signal || cluster.alive_count() <= params_.min_ranks) {
      // Load came back (or crashes shrank the pool under us): reverse the
      // scale-down — cheaper than finishing it and hydrating a standby.
      cluster.cancel_drain(draining_);
      draining_ = kNoMds;
    } else {
      pump_drain(cluster, loads);
    }
    return;
  }

  if (cooldown_ > 0) return;

  if (up_streak_ >= params_.hysteresis_epochs &&
      alive < max_ranks_for(cluster)) {
    // Adopt the lowest-numbered cold rank (deterministic choice).
    for (std::size_t r = 0; r < cluster.size(); ++r) {
      const auto m = static_cast<MdsId>(r);
      if (cluster.is_up(m)) continue;
      cluster.activate(m);
      cooldown_ = params_.cooldown_epochs;
      up_streak_ = 0;
      down_streak_ = 0;
      return;
    }
    return;
  }

  if (down_streak_ >= params_.hysteresis_epochs && alive > params_.min_ranks &&
      alive >= 2) {
    // Shedding a rank must not immediately re-trigger scale-up: project
    // the utilization of the shrunken pool before committing.
    const double projected =
        sum / (static_cast<double>(alive - 1) * capacity);
    if (projected >= params_.scale_up_utilization) return;
    // Victim: the lightest-loaded rank, ties to the highest id (later
    // ranks leave first); rank 0 never drains — it anchors the namespace
    // root and the pool must keep a permanent member.
    MdsId victim = kNoMds;
    for (std::size_t r = 1; r < loads.size(); ++r) {
      const auto m = static_cast<MdsId>(r);
      if (!cluster.is_up(m)) continue;
      if (victim == kNoMds ||
          loads[r] <= loads[static_cast<std::size_t>(victim)]) {
        victim = m;
      }
    }
    if (victim == kNoMds) return;
    cluster.begin_drain(victim);
    draining_ = victim;
    cooldown_ = params_.cooldown_epochs;
    up_streak_ = 0;
    down_streak_ = 0;
    ++stats_.drain_epochs;
    pump_drain(cluster, loads);
  }
}

void Autoscaler::pump_drain(MdsCluster& cluster, std::span<const Load> loads) {
  const MdsId victim = draining_;
  const std::vector<fs::SubtreeRef> owned = cluster.owned_subtrees(victim);
  if (owned.empty() && !cluster.migration().touches(victim)) {
    if (cluster.alive_count() < 2 || !cluster.retire(victim)) {
      cluster.cancel_drain(victim);
    }
    draining_ = kNoMds;
    return;
  }
  // Re-export whatever is left, round-robin over the lightest targets.
  // Refused submits (duplicates still queued, hot subtrees) are retried at
  // the next epoch; the hot-abort brake applies to drains like any export.
  struct Target {
    MdsId id;
    double load;
  };
  std::vector<Target> targets;
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    const auto m = static_cast<MdsId>(r);
    if (m == victim || !cluster.is_importable(m)) continue;
    targets.push_back(
        {m, r < loads.size() ? loads[r] : 0.0});
  }
  if (targets.empty()) return;
  std::sort(targets.begin(), targets.end(),
            [](const Target& a, const Target& b) {
              if (a.load != b.load) return a.load < b.load;
              return a.id < b.id;
            });
  std::size_t next = 0;
  for (const fs::SubtreeRef& ref : owned) {
    if (cluster.migration().submit(ref, targets[next % targets.size()].id)) {
      ++stats_.drain_exports_submitted;
      ++next;
    }
  }
}

}  // namespace lunule::mds
