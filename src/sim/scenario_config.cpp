#include "sim/scenario_config.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "balancer/dir_hash.h"
#include "balancer/mantle.h"
#include "balancer/vanilla.h"
#include "common/assert.h"
#include "core/lunule_balancer.h"
#include "fs/dirfrag.h"

namespace lunule::sim {

namespace {

/// Throws the std::invalid_argument validate_scenario_config reports.
template <typename T>
[[noreturn]] void reject_knob(const char* knob, T value, const char* want) {
  std::ostringstream os;
  os << "ScenarioConfig: " << knob << " = " << value << ", expected " << want;
  throw std::invalid_argument(os.str());
}

}  // namespace

std::string_view workload_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kCnn:   return "CNN";
    case WorkloadKind::kNlp:   return "NLP";
    case WorkloadKind::kWeb:   return "Web";
    case WorkloadKind::kZipf:  return "Zipf";
    case WorkloadKind::kMd:    return "MD";
    case WorkloadKind::kMixed: return "Mixed";
    case WorkloadKind::kFlashCrowd: return "FlashCrowd";
    case WorkloadKind::kTenant:     return "MultiTenant";
  }
  return "?";
}

std::string_view balancer_name(BalancerKind k) {
  switch (k) {
    case BalancerKind::kVanilla:     return "Vanilla";
    case BalancerKind::kGreedySpill: return "GreedySpill";
    case BalancerKind::kLunule:      return "Lunule";
    case BalancerKind::kLunuleLight: return "Lunule-Light";
    case BalancerKind::kDirHash:     return "Dir-Hash";
    case BalancerKind::kLunuleHash:  return "Lunule-Hash";
    case BalancerKind::kNone:        return "none";
  }
  return "?";
}

std::optional<WorkloadKind> workload_kind_from_name(std::string_view name) {
  for (const WorkloadKind k :
       {WorkloadKind::kCnn, WorkloadKind::kNlp, WorkloadKind::kWeb,
        WorkloadKind::kZipf, WorkloadKind::kMd, WorkloadKind::kMixed,
        WorkloadKind::kFlashCrowd, WorkloadKind::kTenant}) {
    if (workload_name(k) == name) return k;
  }
  return std::nullopt;
}

std::optional<BalancerKind> balancer_kind_from_name(std::string_view name) {
  for (const BalancerKind k : kAllBalancers) {
    if (balancer_name(k) == name) return k;
  }
  return std::nullopt;
}

std::unique_ptr<balancer::Balancer> make_balancer(
    BalancerKind kind, const mds::ClusterParams& cluster_params) {
  switch (kind) {
    case BalancerKind::kVanilla:
      return std::make_unique<balancer::VanillaBalancer>();
    case BalancerKind::kGreedySpill:
      return balancer::make_greedy_spill();
    case BalancerKind::kLunule:
      return std::make_unique<core::LunuleBalancer>(
          core::LunuleParams::for_cluster(cluster_params));
    case BalancerKind::kLunuleLight: {
      core::LunuleParams p = core::LunuleParams::for_cluster(cluster_params);
      p.selection = core::SelectionRule::kHeatShare;
      return std::make_unique<core::LunuleBalancer>(p);
    }
    case BalancerKind::kDirHash:
      return std::make_unique<balancer::DirHashBalancer>();
    case BalancerKind::kLunuleHash: {
      core::LunuleParams p = core::LunuleParams::for_cluster(cluster_params);
      p.selection = core::SelectionRule::kHottestShard;
      // Lunule-Hash plans whenever the pipeline has room: no free floor.
      p.min_pipeline_fraction = 0.0;
      return std::make_unique<core::LunuleBalancer>(p);
    }
    case BalancerKind::kNone:
      return std::make_unique<balancer::NullBalancer>();
  }
  LUNULE_CHECK_MSG(false, "unknown balancer kind");
  return nullptr;
}

void validate_scenario_config(const ScenarioConfig& cfg) {
  const auto positive = [](const char* knob, double v) {
    if (!(v > 0.0 && std::isfinite(v))) reject_knob(knob, v, "> 0");
  };
  if (cfg.n_mds < 1) reject_knob("n_mds", cfg.n_mds, ">= 1");
  if (cfg.replicate_threshold_iops > 0.0 &&
      cfg.n_mds > fs::kMaxReplicaRanks) {
    reject_knob("n_mds", cfg.n_mds, "<= 64 with read replication on");
  }
  if (cfg.n_clients < 1) reject_knob("n_clients", cfg.n_clients, ">= 1");
  positive("mds_capacity_iops", cfg.mds_capacity_iops);
  positive("scale", cfg.scale);
  if (cfg.data_enabled) positive("data_capacity", cfg.data_capacity);
  if (cfg.epoch_ticks < 1) reject_knob("epoch_ticks", cfg.epoch_ticks, ">= 1");
  if (cfg.client_start_spread < 0) {
    reject_knob("client_start_spread", cfg.client_start_spread, ">= 0");
  }
  if (!(cfg.sibling_credit_prob >= 0.0 && cfg.sibling_credit_prob <= 1.0)) {
    reject_knob("sibling_credit_prob", cfg.sibling_credit_prob, "in [0, 1]");
  }
  if (cfg.migration_max_retries < 0) {
    reject_knob("migration_max_retries", cfg.migration_max_retries, ">= 0");
  }
  if (cfg.migration_retry_backoff_ticks < 0) {
    reject_knob("migration_retry_backoff_ticks",
                cfg.migration_retry_backoff_ticks, ">= 0");
  }
  if (cfg.sharded_ticks < 0) {
    reject_knob("sharded_ticks", cfg.sharded_ticks, ">= 0");
  }
  cfg.faults.validate(cfg.n_mds, cfg.max_ticks);

  // An enabled section must also pass the LUNULE_CHECKs of the component
  // it builds (MdsJournal, Autoscaler, ProxyCacheTier).  Those abort, so
  // they are mirrored here as catchable errors.
  const auto require = [](bool ok, const char* knob, auto v, const char* want) {
    if (!ok) reject_knob(knob, v, want);
  };
  if (const journal::JournalParams& j = cfg.journal; j.enabled) {
    require(j.segment_entries >= 1, "journal.segment_entries",
            j.segment_entries, ">= 1");
    require(j.flush_interval_ticks >= 1, "journal.flush_interval_ticks",
            j.flush_interval_ticks, ">= 1");
    require(j.max_unflushed_entries >= 1, "journal.max_unflushed_entries",
            j.max_unflushed_entries, ">= 1");
    require(j.append_cost_ops >= 0.0, "journal.append_cost_ops",
            j.append_cost_ops, ">= 0");
    require(j.flush_cost_ops >= 0.0, "journal.flush_cost_ops",
            j.flush_cost_ops, ">= 0");
    require(j.replay_entries_per_second > 0.0,
            "journal.replay_entries_per_second", j.replay_entries_per_second,
            "> 0");
    require(j.replay_base_seconds >= 0.0, "journal.replay_base_seconds",
            j.replay_base_seconds, ">= 0");
    require(j.replay_capacity_penalty >= 0.0 && j.replay_capacity_penalty < 1.0,
            "journal.replay_capacity_penalty", j.replay_capacity_penalty,
            "in [0, 1)");
    require(j.history_decay_per_epoch > 0.0 && j.history_decay_per_epoch <= 1.0,
            "journal.history_decay_per_epoch", j.history_decay_per_epoch,
            "in (0, 1]");
    require(j.async_high_water_entries >= 1,
            "journal.async_high_water_entries", j.async_high_water_entries,
            ">= 1");
  }
  if (const mds::AutoscalerParams& a = cfg.autoscaler; a.enabled) {
    require(a.min_ranks >= 1, "autoscaler.min_ranks", a.min_ranks, ">= 1");
    require(a.scale_up_utilization > 0.0 && a.scale_up_utilization <= 1.0,
            "autoscaler.scale_up_utilization", a.scale_up_utilization,
            "in (0, 1]");
    require(a.scale_down_utilization >= 0.0 &&
                a.scale_down_utilization < a.scale_up_utilization,
            "autoscaler.scale_down_utilization", a.scale_down_utilization,
            "in [0, scale_up_utilization)");
    require(a.saturation_utilization > 0.0 && a.saturation_utilization <= 1.0,
            "autoscaler.saturation_utilization", a.saturation_utilization,
            "in (0, 1]");
    require(a.hysteresis_epochs >= 1, "autoscaler.hysteresis_epochs",
            a.hysteresis_epochs, ">= 1");
    require(a.cooldown_epochs >= 0, "autoscaler.cooldown_epochs",
            a.cooldown_epochs, ">= 0");
  }
  if (const proxy::ProxyParams& p = cfg.proxy; p.enabled) {
    require(p.lease_ticks >= 1, "proxy.lease_ticks", p.lease_ticks, ">= 1");
    require(p.promote_threshold_iops > 0.0, "proxy.promote_threshold_iops",
            p.promote_threshold_iops, "> 0");
    require(p.max_promoted >= 1, "proxy.max_promoted", p.max_promoted,
            ">= 1");
  }
}

mds::ClusterParams cluster_params_for(const ScenarioConfig& cfg) {
  mds::ClusterParams cp;
  cp.n_mds = cfg.n_mds;
  cp.mds_capacity_iops = cfg.mds_capacity_iops;
  cp.epoch_ticks = cfg.epoch_ticks;
  cp.seed = cfg.seed;
  // The freeze-abort threshold tracks the MDS capacity: a subtree eating
  // more than ~1/8 of an MDS cannot be frozen for export.
  cp.migration.hot_abort_iops = cfg.mds_capacity_iops / 8.0;
  cp.migration.max_retries = cfg.migration_max_retries;
  cp.migration.retry_backoff_ticks = cfg.migration_retry_backoff_ticks;
  cp.journal = cfg.journal;
  cp.recorder.sibling_credit_prob = cfg.sibling_credit_prob;
  cp.replicate_threshold_iops = cfg.replicate_threshold_iops;
  cp.unreplicate_threshold_iops = cfg.replicate_threshold_iops / 8.0;
  if (cfg.autoscaler.enabled) {
    // Elastic pool: start with the configured active set (default: the
    // floor), clamped into [min_ranks, n_mds]; the rest are cold standbys.
    std::size_t init = cfg.autoscaler.initial_active != 0
                           ? cfg.autoscaler.initial_active
                           : cfg.autoscaler.min_ranks;
    const std::size_t lo = std::min(cfg.autoscaler.min_ranks, cfg.n_mds);
    cp.initial_active = std::clamp(init, lo, cfg.n_mds);
  }
  return cp;
}

}  // namespace lunule::sim
