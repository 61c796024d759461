#include "proptest/shrink.h"

#include <algorithm>
#include <vector>

#include "sim/scenario_json.h"

namespace lunule::proptest {

namespace {

/// Drops fault events the shrunk cluster / horizon can no longer host and
/// re-clamps ticks, so every candidate is valid by construction.
void sanitize_faults(sim::ScenarioConfig& cfg) {
  std::vector<faults::FaultEvent> kept;
  for (faults::FaultEvent e : cfg.faults.events) {
    if (e.mds != kNoMds &&
        static_cast<std::size_t>(e.mds) >= cfg.n_mds) {
      continue;
    }
    // The horizon is exclusive: validate() rejects at_tick == max_ticks.
    e.at_tick = std::min(e.at_tick, cfg.max_ticks - 1);
    kept.push_back(e);
  }
  cfg.faults.events = std::move(kept);
}

/// One shrinking pass: every candidate simplification, in roughly
/// decreasing order of structural impact.  Candidates that equal the
/// current config are filtered by the caller (they cannot make progress).
std::vector<sim::ScenarioConfig> candidates(const sim::ScenarioConfig& cur) {
  std::vector<sim::ScenarioConfig> out;
  const auto push = [&out](sim::ScenarioConfig c) {
    sanitize_faults(c);
    out.push_back(std::move(c));
  };

  // Drop each fault event individually.
  for (std::size_t i = 0; i < cur.faults.events.size(); ++i) {
    sim::ScenarioConfig c = cur;
    c.faults.events.erase(c.faults.events.begin() +
                          static_cast<std::ptrdiff_t>(i));
    push(std::move(c));
  }

  // Fewer ranks (toward 1), fewer clients (toward 1), shorter runs.
  if (cur.n_mds > 1) {
    // Just enough ranks to host every fault target, so a fault-dependent
    // failure can still lose most of the cluster.
    MdsId max_fault_rank = kNoMds;
    for (const faults::FaultEvent& e : cur.faults.events) {
      max_fault_rank = std::max(max_fault_rank, e.mds);
    }
    if (max_fault_rank != kNoMds &&
        static_cast<std::size_t>(max_fault_rank) + 1 < cur.n_mds) {
      sim::ScenarioConfig c = cur;
      c.n_mds = static_cast<std::size_t>(max_fault_rank) + 1;
      push(std::move(c));
    }
    for (const std::size_t n : {std::size_t{1}, cur.n_mds / 2}) {
      if (n >= 1 && n < cur.n_mds) {
        sim::ScenarioConfig c = cur;
        c.n_mds = n;
        push(std::move(c));
        // Variant that keeps the fault plan alive by re-targeting events at
        // the surviving ranks instead of letting sanitize drop them.
        sim::ScenarioConfig clamped = cur;
        clamped.n_mds = n;
        for (faults::FaultEvent& e : clamped.faults.events) {
          if (e.mds != kNoMds) {
            e.mds = std::min(e.mds, static_cast<MdsId>(n - 1));
          }
        }
        push(std::move(clamped));
      }
    }
  }
  if (cur.n_clients > 1) {
    for (const std::size_t n : {std::size_t{1}, cur.n_clients / 2}) {
      if (n >= 1 && n < cur.n_clients) {
        sim::ScenarioConfig c = cur;
        c.n_clients = n;
        push(std::move(c));
      }
    }
  }
  {
    const Tick floor = 2 * cur.epoch_ticks;
    const Tick half = std::max(floor, cur.max_ticks / 2);
    if (half < cur.max_ticks) {
      sim::ScenarioConfig c = cur;
      c.max_ticks = half;
      push(std::move(c));
    }
  }
  if (cur.scale > 0.02) {
    sim::ScenarioConfig c = cur;
    c.scale = std::max(0.02, cur.scale / 2.0);
    push(std::move(c));
  }

  // The canonical workload / balancer, when the failure is not about them.
  if (cur.workload != sim::WorkloadKind::kZipf) {
    sim::ScenarioConfig c = cur;
    c.workload = sim::WorkloadKind::kZipf;
    push(std::move(c));
  }
  if (cur.balancer != sim::BalancerKind::kLunule) {
    sim::ScenarioConfig c = cur;
    c.balancer = sim::BalancerKind::kLunule;
    push(std::move(c));
  }

  // Knobs back to their ScenarioConfig defaults, one group at a time.
  const sim::ScenarioConfig def;
  if (cur.journal.enabled) {
    sim::ScenarioConfig c = cur;
    c.journal = def.journal;
    push(std::move(c));
  }
  if (cur.replicate_threshold_iops != def.replicate_threshold_iops) {
    sim::ScenarioConfig c = cur;
    c.replicate_threshold_iops = def.replicate_threshold_iops;
    push(std::move(c));
  }
  if (cur.data_enabled) {
    sim::ScenarioConfig c = cur;
    c.data_enabled = false;
    c.data_capacity = def.data_capacity;
    push(std::move(c));
  }
  if (cur.sibling_credit_prob != def.sibling_credit_prob) {
    sim::ScenarioConfig c = cur;
    c.sibling_credit_prob = def.sibling_credit_prob;
    push(std::move(c));
  }
  if (cur.migration_max_retries != def.migration_max_retries ||
      cur.migration_retry_backoff_ticks !=
          def.migration_retry_backoff_ticks) {
    sim::ScenarioConfig c = cur;
    c.migration_max_retries = def.migration_max_retries;
    c.migration_retry_backoff_ticks = def.migration_retry_backoff_ticks;
    push(std::move(c));
  }
  if (cur.client_rate != def.client_rate ||
      cur.client_rate_jitter != def.client_rate_jitter ||
      cur.client_start_spread != def.client_start_spread) {
    sim::ScenarioConfig c = cur;
    c.client_rate = def.client_rate;
    c.client_rate_jitter = def.client_rate_jitter;
    c.client_start_spread = def.client_start_spread;
    push(std::move(c));
  }
  if (cur.mds_capacity_iops != def.mds_capacity_iops) {
    sim::ScenarioConfig c = cur;
    c.mds_capacity_iops = def.mds_capacity_iops;
    push(std::move(c));
  }
  if (cur.epoch_ticks != def.epoch_ticks) {
    sim::ScenarioConfig c = cur;
    c.epoch_ticks = def.epoch_ticks;
    // Keep the horizon's epoch count roughly intact.
    c.max_ticks = std::max<Tick>(2 * c.epoch_ticks, cur.max_ticks);
    push(std::move(c));
  }
  if (!cur.stop_when_done) {
    sim::ScenarioConfig c = cur;
    c.stop_when_done = true;
    push(std::move(c));
  }
  return out;
}

bool same_config(const sim::ScenarioConfig& a, const sim::ScenarioConfig& b) {
  // Progress detection compares the canonical serialized forms, so every
  // knob counts, including ones the shrinker never mutates.
  return sim::scenario_config_to_json(a) == sim::scenario_config_to_json(b);
}

}  // namespace

sim::ScenarioConfig shrink_config(sim::ScenarioConfig failing,
                                  const FailurePredicate& still_fails,
                                  ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats ? *stats : local;
  // Backstop against a pathological predicate; real shrinks converge in a
  // handful of passes.
  constexpr int kMaxPasses = 32;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++st.passes;
    bool progressed = false;
    for (sim::ScenarioConfig& cand : candidates(failing)) {
      if (same_config(cand, failing)) continue;
      ++st.candidates_tried;
      if (still_fails(cand)) {
        ++st.candidates_accepted;
        failing = std::move(cand);
        progressed = true;
        // Restart the pass from the simplified config: its candidate set
        // is different (and usually smaller).
        break;
      }
    }
    if (!progressed) break;
  }
  return failing;
}

}  // namespace lunule::proptest
