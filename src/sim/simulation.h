// The discrete-time simulation engine.
//
// Time advances in ticks of one simulated second.  Each tick the clients
// run in a rotating order (so no client systematically wins the capacity
// race), the migration engine streams in-flight exports, and every
// `epoch_ticks` ticks the epoch closes: loads are sampled, metrics are
// collected, and the balancer gets its chance to react — exactly the
// paper's 10-second re-balance cadence.
//
// A Simulation is configured by one ScenarioConfig: the cluster, data
// path, IF metric, autoscaler, fault injector and proxy tier are all
// derived from it at construction, so no knob is set in two places.
//
// Scheduled events support the dynamic experiments: adding an MDS at
// minute 10/20 (Fig. 12a) or launching extra client waves (Fig. 12b).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "balancer/balancer.h"
#include "common/types.h"
#include "faults/fault_injector.h"
#include "fs/namespace_tree.h"
#include "mds/autoscaler.h"
#include "mds/cluster.h"
#include "mds/data_path.h"
#include "obs/invariant_checker.h"
#include "proxy/proxy_cache.h"
#include "sim/metrics.h"
#include "sim/scenario_config.h"
#include "workloads/client.h"

namespace lunule::sim {

class Simulation {
 public:
  /// Validates `cfg` (std::invalid_argument before anything is built) and
  /// builds the engine over `tree`, which may already hold a namespace:
  /// the cluster from cluster_params_for(cfg), plus the data path, fault
  /// injector, autoscaler and proxy tier its enabled sections ask for.
  /// A null `balancer` means make_balancer(cfg.balancer, ...).
  Simulation(const ScenarioConfig& cfg,
             std::unique_ptr<fs::NamespaceTree> tree,
             std::unique_ptr<balancer::Balancer> balancer = nullptr);

  /// Registers a client before or during the run.
  void add_client(std::unique_ptr<workloads::Client> client);

  /// Schedules `fn` to fire at the beginning of tick `t`.
  void schedule(Tick t, std::function<void(Simulation&)> fn);

  /// The config this simulation was built from.
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  /// The proxy cache tier (null unless cfg.proxy.enabled).
  [[nodiscard]] const proxy::ProxyCacheTier* proxy_tier() const {
    return proxy_.get();
  }
  /// The injector driving cfg.faults (null for a fault-free plan).
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// Runs until cfg.max_ticks or, with cfg.stop_when_done, job completion.
  void run();

  // -- Accessors -----------------------------------------------------------
  [[nodiscard]] fs::NamespaceTree& tree() { return *tree_; }
  [[nodiscard]] mds::MdsCluster& cluster() { return *cluster_; }
  [[nodiscard]] const mds::MdsCluster& cluster() const { return *cluster_; }
  [[nodiscard]] balancer::Balancer& balancer() { return *balancer_; }
  [[nodiscard]] const balancer::Balancer& balancer() const {
    return *balancer_;
  }
  [[nodiscard]] const MetricsCollector& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::unique_ptr<workloads::Client>>&
  clients() const {
    return clients_;
  }
  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] Tick end_tick() const { return end_tick_; }
  [[nodiscard]] std::size_t clients_done() const;

  /// Completion times (seconds) of all finished clients.
  [[nodiscard]] std::vector<double> job_completion_seconds() const;

  /// Cost metric of the elastic pool: Σ over ticks of the serving rank
  /// count (rank-seconds billed, elastic or not).  Accumulated for every
  /// run so fixed and elastic pools compare on the same meter.
  [[nodiscard]] std::uint64_t rank_seconds() const { return rank_seconds_; }
  /// The autoscaler driving this run, or null when disabled.
  [[nodiscard]] const mds::Autoscaler* autoscaler() const {
    return autoscaler_.get();
  }

 private:
  /// One tick of client execution under the sharded engine (binding,
  /// parallel rank streams, lane merge, serial deferred pass).
  void run_clients_sharded(WorkerPool& pool);

  /// Validated first: every other member is derived from it.
  ScenarioConfig cfg_;
  std::unique_ptr<fs::NamespaceTree> tree_;
  std::unique_ptr<mds::MdsCluster> cluster_;
  std::unique_ptr<mds::DataPath> data_;
  std::unique_ptr<balancer::Balancer> balancer_;
  MetricsCollector metrics_;
  std::vector<std::unique_ptr<workloads::Client>> clients_;
  std::multimap<Tick, std::function<void(Simulation&)>> events_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<proxy::ProxyCacheTier> proxy_;
  std::unique_ptr<mds::Autoscaler> autoscaler_;
  obs::InvariantChecker invariants_;
  std::uint64_t rank_seconds_ = 0;
  /// Sharded-engine scratch, reused across ticks.
  std::vector<mds::TickLane> lanes_;
  std::vector<std::vector<std::size_t>> by_rank_;
  std::vector<std::uint8_t> deferred_;
  Tick now_ = 0;
  Tick end_tick_ = 0;
};

}  // namespace lunule::sim
