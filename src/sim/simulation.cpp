#include "sim/simulation.h"

#include <algorithm>
#include <optional>

#include "common/assert.h"
#include "common/concurrency.h"

namespace lunule::sim {

namespace {

/// The constructor's first initializer: nothing is built from an invalid
/// config.
const ScenarioConfig& validated(const ScenarioConfig& cfg) {
  validate_scenario_config(cfg);
  return cfg;
}

}  // namespace

Simulation::Simulation(const ScenarioConfig& cfg,
                       std::unique_ptr<fs::NamespaceTree> tree,
                       std::unique_ptr<balancer::Balancer> balancer)
    : cfg_(validated(cfg)),
      tree_(std::move(tree)),
      balancer_(std::move(balancer)),
      metrics_(static_cast<double>(cfg_.epoch_ticks),
               core::IfParams{.mds_capacity = cfg_.mds_capacity_iops}) {
  LUNULE_CHECK(tree_ != nullptr);
  cluster_ =
      std::make_unique<mds::MdsCluster>(*tree_, cluster_params_for(cfg_));
  // Event recording is opt-in; the counters read the cluster's tallies
  // regardless.
  cluster_->trace().set_enabled(cfg_.capture_trace);
  if (balancer_ == nullptr) {
    balancer_ = make_balancer(cfg_.balancer, cluster_->params());
  }
  if (cfg_.data_enabled) {
    data_ = std::make_unique<mds::DataPath>(cfg_.data_capacity);
  }
  if (!cfg_.faults.empty()) {
    injector_ =
        std::make_unique<faults::FaultInjector>(*cluster_, cfg_.faults);
  }
  if (cfg_.proxy.enabled) {
    proxy_ = std::make_unique<proxy::ProxyCacheTier>(*tree_, cfg_.proxy);
    cluster_->set_cache_tier(proxy_.get());
  }
  if (cfg_.autoscaler.enabled) {
    autoscaler_ = std::make_unique<mds::Autoscaler>(cfg_.autoscaler);
  }
}

void Simulation::add_client(std::unique_ptr<workloads::Client> client) {
  clients_.push_back(std::move(client));
}

void Simulation::schedule(Tick t, std::function<void(Simulation&)> fn) {
  events_.emplace(t, std::move(fn));
}

std::size_t Simulation::clients_done() const {
  return static_cast<std::size_t>(std::count_if(
      clients_.begin(), clients_.end(),
      [](const std::unique_ptr<workloads::Client>& c) { return c->done(); }));
}

std::vector<double> Simulation::job_completion_seconds() const {
  std::vector<double> out;
  for (const auto& c : clients_) {
    if (c->done()) out.push_back(static_cast<double>(c->completion_tick()));
  }
  return out;
}

void Simulation::run_clients_sharded(WorkerPool& pool) {
  const std::size_t n = clients_.size();
  const std::size_t n_ranks = cluster_->size();

  // Binding (serial): each client with a fetched op binds to the rank that
  // op resolves to; everything else routes through the deferred pass.  The
  // rotation offset keeps the legacy engine's fairness property — within a
  // rank stream and within the deferred pass, clients run in the same
  // rotated order the serial engine would visit them in.
  by_rank_.resize(n_ranks);
  for (auto& bucket : by_rank_) bucket.clear();
  deferred_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (k + static_cast<std::size_t>(now_)) % n;
    const MdsId r = clients_[idx]->shard_rank(*cluster_, now_);
    if (r == kNoMds) {
      deferred_[idx] = 1;
    } else {
      by_rank_[static_cast<std::size_t>(r)].push_back(idx);
    }
  }

  // Parallel rank streams.  Streams touch disjoint state: client objects
  // are partitioned, rank-local server/journal/fragment effects apply in
  // place, and anything shared escrows into the rank's lane.  A client
  // whose stream leaves its bound rank pauses and flags itself deferred —
  // its own slot in deferred_, so no synchronization is needed.
  lanes_.resize(n_ranks);
  pool.run_indexed(n_ranks, [&](std::size_t r) {
    lanes_[r].reset(static_cast<MdsId>(r), n_ranks);
    workloads::ShardBinding binding{static_cast<MdsId>(r), &lanes_[r]};
    for (const std::size_t idx : by_rank_[r]) {
      bool paused = false;
      clients_[idx]->run_tick(*cluster_, data_.get(), now_, &binding,
                              &paused);
      if (paused) deferred_[idx] = 1;
    }
  });

  // Serial merge in ascending rank order, then the deferred pass in
  // rotated order — both independent of S and worker scheduling.
  cluster_->merge_lanes(lanes_);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (k + static_cast<std::size_t>(now_)) % n;
    if (deferred_[idx] != 0) {
      clients_[idx]->run_tick(*cluster_, data_.get(), now_);
    }
  }
}

void Simulation::run() {
  balancer_->setup(*cluster_);

  // Sharded engine: one persistent pool for the whole run, sized by the
  // process-wide budget (a starved grant degrades to inline execution with
  // identical results).  The cluster shares the pool for its own parallel
  // phases (epoch-close fold, candidate collection).
  std::optional<ConcurrencyGrant> grant;
  std::unique_ptr<WorkerPool> pool;
  if (cfg_.sharded_ticks >= 1) {
    grant.emplace(static_cast<std::size_t>(cfg_.sharded_ticks) - 1);
    pool = std::make_unique<WorkerPool>(grant->granted());
    cluster_->set_shard_pool(pool.get());
  }

  for (now_ = 0; now_ < cfg_.max_ticks; ++now_) {
    // Fire events scheduled for this tick.
    auto range = events_.equal_range(now_);
    for (auto it = range.first; it != range.second; ++it) {
      it->second(*this);
    }
    events_.erase(range.first, range.second);

    // Inject faults before the tick opens so budgets and authority reflect
    // the failure from its first affected tick.
    if (injector_ && !injector_->done()) injector_->on_tick(now_);

    cluster_->begin_tick(now_);
    if (data_) data_->begin_tick();

    if (pool != nullptr && !clients_.empty()) {
      run_clients_sharded(*pool);
    } else {
      // Rotate the service order so early clients do not permanently win
      // the race for the bottleneck MDS's capacity.
      const std::size_t n = clients_.size();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (k + static_cast<std::size_t>(now_)) % n;
        clients_[idx]->run_tick(*cluster_, data_.get(), now_);
      }
    }
    cluster_->end_tick();
    // Rank-seconds billed this tick: the cost meter both fixed and elastic
    // pools are compared on.
    rank_seconds_ += cluster_->alive_count();

    if ((now_ + 1) % cfg_.epoch_ticks == 0) {
      const std::vector<Load> loads = cluster_->close_epoch();
      // Conservation audit of the just-closed epoch — before the balancer
      // reacts, so a violation is attributed to the epoch that produced it.
      // Free in production runs: release builds only check under
      // LUNULE_VALIDATE=1.
      if (obs::validation_enabled()) {
        const std::vector<std::string> violations =
            invariants_.check_epoch(*cluster_, loads);
        for (const std::string& violation : violations) {
          std::fprintf(stderr, "invariant violation (epoch %lld): %s\n",
                       static_cast<long long>(cluster_->epoch() - 1),
                       violation.c_str());
        }
        LUNULE_CHECK_MSG(violations.empty(),
                         "epoch invariants violated (see stderr)");
      }
      metrics_.on_epoch(*cluster_, loads);
      balancer_->on_epoch(*cluster_, loads);
      // Elasticity decisions run after the balancer so both see the same
      // closed-epoch loads and the balancer keeps first claim on the
      // migration pipeline.
      if (autoscaler_) autoscaler_->on_epoch(*cluster_, loads);
    }

    if (cfg_.stop_when_done && events_.empty() &&
        (!injector_ || injector_->done()) &&
        clients_done() == clients_.size()) {
      ++now_;
      break;
    }
  }
  end_tick_ = now_;
  // The pool dies with this frame; the cluster must not keep the pointer.
  if (pool != nullptr) cluster_->set_shard_pool(nullptr);
  // A run that gets here survived every epoch audit; say so when auditing
  // was requested, so "validation on and silent" is distinguishable from
  // "validation never ran".
  if (obs::validation_enabled() && invariants_.epochs_checked() > 0) {
    std::fprintf(stderr, "invariants: %llu epochs checked, 0 violations\n",
                 static_cast<unsigned long long>(
                     invariants_.epochs_checked()));
  }
}

}  // namespace lunule::sim
