#include "core/lunule_balancer.h"

#include <algorithm>
#include <numeric>

#include "balancer/candidates.h"
#include "balancer/dir_hash.h"
#include "common/assert.h"

namespace lunule::core {

namespace {

/// The assignment with the largest remaining demand (the first of equals),
/// or null once every demand is met.  Each selected unit goes to it.
MigrationAssignment* largest_demand(
    std::vector<MigrationAssignment>& assignments) {
  const auto it = std::max_element(assignments.begin(), assignments.end(),
                                   [](const MigrationAssignment& a,
                                      const MigrationAssignment& b) {
                                     return a.amount < b.amount;
                                   });
  return it == assignments.end() || it->amount <= 0.0 ? nullptr : &*it;
}

}  // namespace

LunuleParams LunuleParams::for_cluster(const mds::ClusterParams& cluster) {
  LunuleParams p;
  p.if_params.mds_capacity = cluster.mds_capacity_iops;
  // Cap: the load one MDS can realistically shed within one epoch; we tie
  // it to 90% of its capacity so a single decision never tries to empty an
  // MDS outright (the physical brake is the migration-pipeline inode cap).
  p.roles.epoch_capacity_cap = cluster.mds_capacity_iops * 0.9;
  // Per-epoch migration capacity in inodes: what the Migrator can stream.
  p.selector.inode_cap = static_cast<std::uint64_t>(
      cluster.migration.bandwidth_inodes_per_tick *
      static_cast<double>(cluster.epoch_ticks) *
      cluster.migration.max_inflight_per_exporter);
  p.selector.window_seconds = static_cast<double>(cluster.epoch_ticks) *
                              static_cast<double>(fs::kCuttingWindows);
  // Skip candidates the Migrator could not freeze anyway.
  p.selector.hot_skip_iops = cluster.migration.hot_abort_iops;
  return p;
}

LunuleBalancer::LunuleBalancer(LunuleParams params)
    : params_(params), selector_(params.selector) {
  LUNULE_CHECK(params_.if_threshold > 0.0 && params_.if_threshold < 1.0);
}

std::string_view LunuleBalancer::name() const {
  switch (params_.selection) {
    case SelectionRule::kMIndex:
      return "Lunule";
    case SelectionRule::kHeatShare:
      return "Lunule-Light";
    case SelectionRule::kHottestShard:
      return "Lunule-Hash";
  }
  LUNULE_CHECK_MSG(false, "unknown selection rule");
  return {};
}

void LunuleBalancer::setup(mds::MdsCluster& cluster) {
  if (params_.selection == SelectionRule::kHottestShard) {
    balancer::DirHashBalancer().setup(cluster);
  }
}

void LunuleBalancer::set_max_subtrees(std::size_t max_subtrees) {
  params_.selector.max_subtrees = max_subtrees;
  selector_ = SubtreeSelector(params_.selector);
}

void LunuleBalancer::on_epoch(mds::MdsCluster& cluster,
                              std::span<const Load> loads) {
  std::vector<MdsLoadStat> stats = monitor_.collect(cluster, loads);
  // IF over the alive ranks only (the monitor already filtered): counting a
  // crashed rank's zero load would inflate the imbalance it reports.
  std::vector<double> alive_loads;
  alive_loads.reserve(stats.size());
  for (const MdsLoadStat& s : stats) alive_loads.push_back(s.cld);
  last_if_ = imbalance_factor(alive_loads, params_.if_params);
  last_plan_ = MigrationPlan{};
  if (last_if_ <= params_.if_threshold) return;

  // Lag awareness: the migration pipeline (in-flight + newly selected
  // inodes) is capped at one epoch's migration capacity.  While most of it
  // is still streaming, the measured loads do not reflect it yet and
  // re-planning would double-commit the same imbalance.
  const std::uint64_t backlog = cluster.migration().backlog_inodes();
  const std::uint64_t cap = params_.selector.inode_cap;
  if (backlog >= cap) return;
  const std::uint64_t budget = cap - backlog;
  if (static_cast<double>(budget) <
      params_.min_pipeline_fraction * static_cast<double>(cap)) {
    return;
  }

  last_plan_ = decide_roles(stats, params_.roles, &cluster.trace());
  if (last_plan_.empty()) return;
  const std::vector<std::size_t> per_exporter =
      last_plan_.assignments_per_exporter();
  monitor_.record_decisions(per_exporter);

  // Group assignments per exporter so one selection pass covers all its
  // importers, then revise (drop) that exporter's stale queued tasks.  The
  // subtree rules give every exporter the whole free pipeline; Lunule-Hash
  // spends one budget across all of them.
  std::uint64_t shard_budget = budget;
  for (const MdsId exporter : last_plan_.exporters) {
    std::vector<MigrationAssignment> mine;
    for (const MigrationAssignment& a : last_plan_.assignments) {
      if (a.exporter == exporter && a.amount > 0.0) mine.push_back(a);
    }
    if (mine.empty()) continue;
    cluster.migration().drop_queued(exporter);
    switch (params_.selection) {
      case SelectionRule::kMIndex:
        select_mindex(cluster, exporter, std::move(mine), budget);
        break;
      case SelectionRule::kHeatShare:
        select_heat_share(cluster, exporter,
                          loads[static_cast<std::size_t>(exporter)],
                          std::move(mine), budget);
        break;
      case SelectionRule::kHottestShard:
        select_hottest_shards(cluster, exporter, std::move(mine),
                              shard_budget);
        break;
    }
  }
}

void LunuleBalancer::select_mindex(
    mds::MdsCluster& cluster, MdsId exporter,
    std::vector<MigrationAssignment> assignments,
    std::uint64_t inode_budget) {
  const double total = std::accumulate(
      assignments.begin(), assignments.end(), 0.0,
      [](double acc, const MigrationAssignment& a) { return acc + a.amount; });
  std::vector<Selection> picks = selector_.select(
      cluster.tree(), exporter, total, inode_budget,
      cluster.window_live_dirs(), cluster.shard_pool());
  // Hand each selected subtree to the importer with the largest remaining
  // demand, decrementing by the subtree's predicted contribution.
  for (const Selection& pick : picks) {
    cluster.trace().record(obs::Component::kSelector,
                           {.kind = obs::EventKind::kSelection,
                            .a = exporter,
                            .b = pick.ref.frag,
                            .n0 = static_cast<std::int64_t>(pick.ref.dir),
                            .n1 = static_cast<std::int64_t>(pick.inodes),
                            .v0 = pick.index.alpha,
                            .v1 = pick.index.beta,
                            .v2 = pick.index.l_t,
                            .v3 = pick.index.l_s});
    MigrationAssignment* target = largest_demand(assignments);
    if (target == nullptr) break;
    if (cluster.migration().submit(pick.ref, target->importer)) {
      target->amount -= pick.predicted_iops;
    }
  }
}

void LunuleBalancer::select_heat_share(
    mds::MdsCluster& cluster, MdsId exporter, double exporter_load,
    std::vector<MigrationAssignment> assignments,
    std::uint64_t inode_budget) {
  std::size_t taken = 0;
  const auto take = [&](const balancer::Candidate& c, double est_load) {
    if (taken >= params_.selector.max_subtrees) return false;
    if (c.inodes > inode_budget) return true;
    MigrationAssignment* target = largest_demand(assignments);
    if (target == nullptr) return false;
    // CephFS default selection skips subtrees hotter than the target
    // amount (it would descend instead of exporting them whole).
    if (est_load > target->amount) return true;
    if (cluster.migration().submit(c.ref, target->importer)) {
      cluster.trace().record(obs::Component::kSelector,
                             {.kind = obs::EventKind::kHeatSelection,
                              .a = exporter,
                              .b = c.ref.frag,
                              .n0 = static_cast<std::int64_t>(c.ref.dir),
                              .n1 = static_cast<std::int64_t>(c.inodes),
                              .v0 = est_load});
      target->amount -= est_load;
      inode_budget -= c.inodes;
      ++taken;
    }
    return true;
  };
  balancer::walk_heat_share(cands_, cluster, exporter, exporter_load, take);
}

void LunuleBalancer::select_hottest_shards(
    mds::MdsCluster& cluster, MdsId exporter,
    std::vector<MigrationAssignment> assignments,
    std::uint64_t& inode_budget) {
  // Rank the exporter's shards by their observed last-epoch load and
  // re-pin the hottest movable ones until the assigned amounts are covered.
  // A shard outside the window-live set has zero last-epoch visits, where
  // the walk below stops anyway.
  balancer::collect_candidates_into(cands_, cluster.tree(), exporter,
                                    cluster.window_live_dirs(),
                                    cluster.shard_pool());
  // The cutting windows span kCuttingWindows epochs.
  const double epoch_seconds = params_.selector.window_seconds /
                               static_cast<double>(fs::kCuttingWindows);
  const auto take = [&](const balancer::Candidate& shard) {
    const double rate =
        static_cast<double>(shard.visits_last_epoch) / epoch_seconds;
    if (rate <= 0.0) return false;  // the rest of the list is idle
    if (rate > params_.selector.hot_skip_iops) return true;  // a freeze aborts
    if (shard.inodes > inode_budget) return true;
    MigrationAssignment* target = largest_demand(assignments);
    if (target == nullptr) return false;
    if (cluster.migration().submit(shard.ref, target->importer)) {
      target->amount -= rate;
      inode_budget -= shard.inodes;
    }
    return true;
  };
  balancer::walk_in_order(cands_, balancer::last_epoch_visits_order, take);
}

}  // namespace lunule::core
