// Scenario construction: workload x balancer x cluster configurations.
//
// A ScenarioConfig describes one experiment cell of the paper's evaluation
// matrix (which workload, which balancer, cluster size, client population,
// scale).  make_scenario() builds the namespace with the Table 1 shape,
// instantiates the clients with staggered start times and jittered issue
// rates (real client fleets never start in lock-step), wires up the chosen
// balancer, and returns a ready-to-run Simulation.
//
// The `scale` knob shrinks dataset sizes and request counts together so
// benches can trade fidelity for runtime without distorting shapes.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "journal/journal.h"
#include "proxy/proxy_cache.h"
#include "sim/simulation.h"

namespace lunule::sim {

enum class WorkloadKind {
  kCnn,
  kNlp,
  kWeb,
  kZipf,
  kMd,
  kMixed,
  /// Celebrity-file / thundering-herd mix: the whole fleet hammers one
  /// shared hot directory (indivisible hotspot; proxy-tier territory).
  kFlashCrowd,
  /// Multi-tenant container-platform mix: thousands of small tenant
  /// directories with Zipf popularity and a create tail.
  kTenant,
};
enum class BalancerKind {
  kVanilla,
  kGreedySpill,
  kLunule,
  kLunuleLight,
  kDirHash,
  /// Generality extension (paper §3.4): static hash placement with
  /// IF-model-driven shard re-pinning.
  kLunuleHash,
  kNone,
};

[[nodiscard]] std::string_view workload_name(WorkloadKind k);
[[nodiscard]] std::string_view balancer_name(BalancerKind k);

/// Inverse lookups (exact display-name match, e.g. "Lunule-Light");
/// std::nullopt on unknown names.  Used by the JSON config loader.
[[nodiscard]] std::optional<WorkloadKind> workload_kind_from_name(
    std::string_view name);
[[nodiscard]] std::optional<BalancerKind> balancer_kind_from_name(
    std::string_view name);

struct ScenarioConfig {
  WorkloadKind workload = WorkloadKind::kZipf;
  BalancerKind balancer = BalancerKind::kLunule;

  std::size_t n_mds = 5;
  std::size_t n_clients = 100;
  /// Theoretical per-MDS capacity C (IOPS).
  double mds_capacity_iops = 2500.0;
  /// Per-client maximal metadata issue rate (ops/s), jittered per client.
  double client_rate = 150.0;
  double client_rate_jitter = 0.05;
  /// Client start times spread uniformly over [0, start_spread) ticks.
  /// The paper launches its 100 clients simultaneously; a small spread
  /// models fleet-launch skew.
  Tick client_start_spread = 8;

  /// Dataset / request-count scale multiplier (1.0 = bench default, which
  /// is already reduced relative to the paper's full datasets).
  double scale = 1.0;

  Tick max_ticks = 2400;
  int epoch_ticks = 10;
  bool stop_when_done = true;

  bool data_enabled = false;
  /// Aggregate OSD capacity (data ops/s) when the data path is enabled.
  double data_capacity = 60000.0;

  /// Pattern Analyzer's sibling-correlation credit probability (0 disables
  /// the spatial-locality signal — ablation studies).
  double sibling_credit_prob = 0.3;

  /// Hot-dirfrag read replication threshold (IOPS); 0 disables it (the
  /// default, matching the paper's evaluation).
  double replicate_threshold_iops = 0.0;

  /// Fault schedule applied during the run (empty = fault-free).  Pure
  /// data, so the same seed + the same plan reproduce the same trace;
  /// validated against n_mds / max_ticks at scenario construction
  /// (std::invalid_argument on a malformed plan).
  faults::FaultPlan faults;

  /// Per-rank metadata journal (journal.enabled = false by default: no
  /// journal exists and every trace stays byte-identical to the
  /// journal-free behavior).  With it on, mutations/migrations/checkpoints
  /// append entries, journaling consumes IOPS budget, and crash take-over
  /// becomes replay-based (see docs/JOURNAL.md).
  journal::JournalParams journal;

  /// Forced-abort retry budget of the migration engine (how many times a
  /// fault-aborted export requeues before the task is dropped for good)
  /// and its backoff base; defaults match the engine's historical
  /// constants, so existing seeds trace byte-identically.
  int migration_max_retries = 3;
  Tick migration_retry_backoff_ticks = 5;

  /// Record flight-recorder events and export them as `trace_json`.
  /// Off by default: monotonic counters (and hence the invariant checks)
  /// always run, but event recording and the JSON dump are only paid when
  /// a trace was asked for (--trace, or tests that inspect the dump).
  bool capture_trace = false;

  /// Sharded tick engine: 0 (default) keeps the legacy serial client loop;
  /// S >= 1 partitions each tick's clients by the rank their next op binds
  /// to and runs the rank streams on up to S threads with deterministic
  /// lane merging.  Results and traces are byte-identical for every
  /// S >= 1 (the sharded schedule itself differs from the legacy one).
  int sharded_ticks = 0;

  /// Elastic MDS pool (autoscaler.enabled = false by default: all n_mds
  /// ranks serve for the whole run and every trace stays byte-identical to
  /// the fixed-pool behavior).  With it on, ranks past
  /// `autoscaler.initial_active` start as cold standbys and the pool grows
  /// or shrinks at epoch boundaries (see docs/ELASTICITY.md).
  mds::AutoscalerParams autoscaler;

  /// Hotspot-absorbing proxy cache tier (proxy.enabled = false by default:
  /// no tier is constructed and every trace stays byte-identical to the
  /// tier-free behavior).  With it on, flash-crowd directories are
  /// promoted into the tier and repeated reads are absorbed under
  /// bounded-TTL leases (see docs/CACHING.md).
  proxy::ProxyParams proxy;

  std::uint64_t seed = 42;
};

/// Rejects a config the simulator cannot run with std::invalid_argument
/// naming the first out-of-range knob (n_mds, n_clients, capacities,
/// scale, epoch length, probabilities, retry budgets, shard count, and
/// the knobs of an enabled journal, autoscaler or proxy section) or the
/// fault plan's defect.  Configs come from repro files, hand-written JSON
/// and bench flags, so a bad value is an input error, not an invariant
/// violation.  make_scenario calls it before building anything.
void validate_scenario_config(const ScenarioConfig& cfg);

/// The cluster parameters a scenario config resolves to (capacity,
/// epoch length, migration calibration).  Exposed so callers can derive
/// custom balancer parameters (e.g. LunuleParams::for_cluster) that stay
/// consistent with the scenario.
[[nodiscard]] mds::ClusterParams cluster_params_for(
    const ScenarioConfig& cfg);

/// Builds a balancer instance for a given kind and cluster configuration.
[[nodiscard]] std::unique_ptr<balancer::Balancer> make_balancer(
    BalancerKind kind, const mds::ClusterParams& cluster_params);

/// Builds the complete simulation for one experiment cell.
[[nodiscard]] std::unique_ptr<Simulation> make_scenario(
    const ScenarioConfig& cfg);

/// Same, but with a caller-supplied balancer (ablation studies, custom
/// policies); cfg.balancer is ignored.
[[nodiscard]] std::unique_ptr<Simulation> make_scenario_with_balancer(
    const ScenarioConfig& cfg,
    std::unique_ptr<balancer::Balancer> balancer);

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

/// The reporting summary of a finished simulation built from `cfg` by
/// make_scenario or make_scenario_with_balancer.  The result is named
/// after the simulation's own balancer (Balancer::name(), which equals
/// balancer_name(cfg.balancer) for every built-in kind).
[[nodiscard]] ScenarioResult result_of(const Simulation& sim,
                                       const ScenarioConfig& cfg);

/// Runs a scenario to completion: make_scenario, run, result_of.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& cfg);

}  // namespace lunule::sim
