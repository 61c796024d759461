// The configuration of one simulation: workload x balancer x cluster.
//
// A ScenarioConfig describes one experiment cell of the paper's evaluation
// matrix (which workload, which balancer, cluster size, client population,
// scale) and is the one source of every engine knob: the Simulation derives
// its cluster, data path, metrics, autoscaler, fault injector and proxy
// tier from it (sim/simulation.h), and make_scenario builds the workload on
// top (sim/scenario.h).
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "balancer/balancer.h"
#include "common/types.h"
#include "faults/fault_plan.h"
#include "journal/journal.h"
#include "mds/autoscaler.h"
#include "mds/cluster.h"
#include "proxy/proxy_cache.h"

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
/// Every balancer kind, in declaration order.
inline constexpr BalancerKind kAllBalancers[] = {
    BalancerKind::kVanilla, BalancerKind::kGreedySpill,
    BalancerKind::kLunule,  BalancerKind::kLunuleLight,
    BalancerKind::kDirHash, BalancerKind::kLunuleHash,
    BalancerKind::kNone,
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
  /// Stop as soon as every client's job completed.
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
  /// validated against n_mds / max_ticks at simulation construction
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
  /// Off by default: the tallies behind the counters (and the invariant
  /// checks) always run, but event recording and the JSON dump are only
  /// paid when a trace was asked for (--trace, or tests that inspect the
  /// dump).
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
/// violation.  The Simulation constructor calls it before building
/// anything.
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

}  // namespace lunule::sim
