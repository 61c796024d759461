// Scenario construction: the workload a ScenarioConfig names, on the
// Simulation it configures.
//
// make_scenario() builds the Simulation from the config (cluster, balancer,
// fault plan, journal, pool, proxy tier; see sim/simulation.h), then the
// namespace with the Table 1 shape, and instantiates the clients with
// staggered start times and jittered issue rates (real client fleets never
// start in lock-step).  The result is ready to run.
//
// The `scale` knob shrinks dataset sizes and request counts together so
// benches can trade fidelity for runtime without distorting shapes.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "faults/fault_injector.h"
#include "sim/scenario_config.h"
#include "sim/simulation.h"

namespace lunule::sim {

/// Builds the complete simulation for one experiment cell.  A caller-
/// supplied balancer (ablation studies, custom policies) replaces the one
/// cfg.balancer names.
[[nodiscard]] std::unique_ptr<Simulation> make_scenario(
    const ScenarioConfig& cfg,
    std::unique_ptr<balancer::Balancer> balancer = nullptr);

// -- Batch runner used by the figure benches --------------------------------

struct ScenarioResult {
  std::string workload;
  /// The balancer's own name (Balancer::name()).
  std::string balancer;
  /// Every closed epoch, carried whole: the figure series (per-MDS IOPS,
  /// IF, aggregate IOPS, migrated inodes), mean IF and peak aggregate IOPS
  /// are folds over its rows.
  MetricsCollector metrics;
  std::vector<std::uint64_t> total_served_per_mds;
  std::vector<double> jct_seconds;  // completed clients only
  /// Per-operation completion latency (ticks), merged over all clients.
  Histogram op_latency;
  /// Mean stall fraction over all clients (share of active time blocked).
  double mean_stall_fraction = 0.0;
  /// Fraction of audited migrations whose subtree was used at its new home
  /// (1.0 when nothing was audited); low values reproduce the paper's
  /// "never visited after migration" finding.
  double valid_migration_fraction = 1.0;
  std::uint64_t migrations_audited = 0;
  std::uint64_t wasted_migration_inodes = 0;
  std::uint64_t total_served = 0;
  std::uint64_t total_forwards = 0;
  std::uint64_t migrated_total = 0;
  std::uint64_t migrations_completed = 0;
  std::size_t clients_done = 0;
  std::size_t n_clients = 0;
  Tick end_tick = 0;
  /// Tick of the plan's earliest crash / permanent loss (-1 = none).
  Tick first_crash_tick = -1;
  /// Migration tasks dropped for good after exhausting forced-abort
  /// retries (each leaves a terminal migration_retries_exhausted event).
  std::uint64_t migration_retries_exhausted = 0;
  /// Σ over ticks of the serving rank count (the elastic pool's cost
  /// meter); filled for every run, elastic or not.
  std::uint64_t rank_seconds = 0;
  /// Seconds spent with a scale-down drain in flight (0 without one).
  double drain_seconds = 0.0;
  // -- Component totals, copied whole at the end of the run ---------------
  /// Fault plan and crash replays (all zero on fault-free runs).
  faults::FaultTotals faults;
  /// Cluster-wide journal lifetime totals (all zero with it disabled).
  mds::MdsCluster::JournalTotals journal;
  /// Pool membership changes (activations, drains begun, retirements),
  /// including any driven manually via scheduled events.
  mds::MdsCluster::ElasticityTotals elasticity;
  /// Proxy cache tier (all zero with it disabled).
  proxy::ProxyCacheTier::Totals proxy;
  /// Full flight-recorder dump (JSON, deterministic for a fixed seed);
  /// benches write it to disk under --trace.
  std::string trace_json;

  /// Completed work: ops the MDSs served plus reads the proxy tier
  /// absorbed.  Balancer, pool and journal decide where an op completes,
  /// never whether, so conservation checks compare this sum.
  [[nodiscard]] std::uint64_t completed_ops() const {
    return total_served + proxy.reads_absorbed;
  }

  /// Seconds from the first crash until the observed IF first returns
  /// below the Lunule trigger threshold (-1 = no crash, or never
  /// re-converged within the run).
  [[nodiscard]] double reconverge_seconds() const {
    return metrics.reconverge_seconds(first_crash_tick);
  }

  /// Sustained throughput: ops served per simulated second of the run
  /// (robust against different run lengths: faster balancers finish the
  /// fixed job sooner).
  [[nodiscard]] double sustained_iops() const {
    return static_cast<double>(total_served) /
           std::max<double>(1.0, static_cast<double>(end_tick));
  }
};

/// The reporting summary of a finished simulation, read against its own
/// config.  The result is named after the simulation's own balancer
/// (Balancer::name(), which equals balancer_name(cfg.balancer) for every
/// built-in kind).
[[nodiscard]] ScenarioResult result_of(const Simulation& sim);

/// Runs a scenario to completion: make_scenario, run, result_of.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& cfg);

}  // namespace lunule::sim
