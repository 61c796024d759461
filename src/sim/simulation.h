// The discrete-time simulation engine.
//
// Time advances in ticks of one simulated second.  Each tick the clients
// run in a rotating order (so no client systematically wins the capacity
// race), the migration engine streams in-flight exports, and every
// `epoch_ticks` ticks the epoch closes: loads are sampled, metrics are
// collected, and the balancer gets its chance to react — exactly the
// paper's 10-second re-balance cadence.
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
#include "faults/fault_plan.h"
#include "fs/namespace_tree.h"
#include "mds/autoscaler.h"
#include "mds/cache_tier.h"
#include "mds/cluster.h"
#include "mds/data_path.h"
#include "mds/memory_model.h"
#include "obs/invariant_checker.h"
#include "sim/metrics.h"
#include "workloads/client.h"

namespace lunule::sim {

class Simulation {
 public:
  struct Options {
    Tick max_ticks = 2400;
    int epoch_ticks = 10;
    /// Stop as soon as every client's job completed.
    bool stop_when_done = true;
    /// When set, the run ends as soon as any MDS exceeds its memory budget
    /// (checked at every epoch close) — how the paper's MDtest experiments
    /// ended after ~15 minutes.
    bool stop_on_memory_limit = false;
    mds::MemoryParams memory;
    /// Tick-engine selection.  0 (default) runs the legacy serial client
    /// loop.  S >= 1 runs the sharded engine: clients are partitioned by
    /// the rank their next operation binds to, rank streams execute on up
    /// to S threads with per-rank effect lanes, lanes merge in ascending
    /// rank order, and clients the binding could not place (or that paused
    /// mid-stream) finish in a serial deferred pass.  The schedule is
    /// canonical — results and traces are byte-identical for every S >= 1
    /// and any number of actually-granted worker threads.
    int sharded_ticks = 0;
    /// Elastic MDS pool: when `autoscaler.enabled`, an Autoscaler runs at
    /// every epoch boundary (right after the balancer) and may grow or
    /// shrink the serving rank set.  Off by default — disabled runs are
    /// byte-identical to a fixed pool.
    mds::AutoscalerParams autoscaler;
  };

  Simulation(std::unique_ptr<fs::NamespaceTree> tree,
             std::unique_ptr<mds::MdsCluster> cluster,
             std::unique_ptr<mds::DataPath> data,  // may be nullptr
             std::unique_ptr<balancer::Balancer> balancer, Options options,
             core::IfParams if_params);

  /// Registers a client before or during the run.
  void add_client(std::unique_ptr<workloads::Client> client);

  /// Schedules `fn` to fire at the beginning of tick `t`.
  void schedule(Tick t, std::function<void(Simulation&)> fn);

  /// Installs a fault schedule.  Must be called before run(); the plan is
  /// applied at tick boundaries, before the cluster opens each tick.
  void set_fault_plan(const faults::FaultPlan& plan);

  /// Installs a cache tier (e.g. proxy::ProxyCacheTier) and wires it into
  /// the cluster.  Must be called before run().  Without one, behavior and
  /// traces are byte-identical to the tier-free engine.
  void set_cache_tier(std::unique_ptr<mds::CacheTier> tier);
  [[nodiscard]] mds::CacheTier* cache_tier() const {
    return cache_tier_.get();
  }
  /// The injector driving the installed plan (null without one).
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// Runs until max_ticks or, with stop_when_done, job completion.
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
  /// True if the run ended because an MDS exceeded its memory budget.
  [[nodiscard]] bool stopped_on_memory() const { return stopped_on_memory_; }
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

  std::unique_ptr<fs::NamespaceTree> tree_;
  std::unique_ptr<mds::MdsCluster> cluster_;
  std::unique_ptr<mds::DataPath> data_;
  std::unique_ptr<balancer::Balancer> balancer_;
  Options options_;
  MetricsCollector metrics_;
  std::vector<std::unique_ptr<workloads::Client>> clients_;
  std::multimap<Tick, std::function<void(Simulation&)>> events_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<mds::CacheTier> cache_tier_;
  std::unique_ptr<mds::Autoscaler> autoscaler_;
  obs::InvariantChecker invariants_;
  std::uint64_t rank_seconds_ = 0;
  /// Sharded-engine scratch, reused across ticks.
  std::vector<mds::TickLane> lanes_;
  std::vector<std::vector<std::size_t>> by_rank_;
  std::vector<std::uint8_t> deferred_;
  Tick now_ = 0;
  Tick end_tick_ = 0;
  bool stopped_on_memory_ = false;
};

}  // namespace lunule::sim
