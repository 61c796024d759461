#include "proptest/generator.h"

#include <algorithm>

#include "common/rng.h"

namespace lunule::proptest {

namespace {

sim::WorkloadKind random_workload(Rng& rng) {
  static constexpr sim::WorkloadKind kAll[] = {
      sim::WorkloadKind::kCnn, sim::WorkloadKind::kNlp,
      sim::WorkloadKind::kWeb, sim::WorkloadKind::kZipf,
      sim::WorkloadKind::kMd,  sim::WorkloadKind::kMixed,
      sim::WorkloadKind::kFlashCrowd, sim::WorkloadKind::kTenant,
  };
  return kAll[rng.next_below(std::size(kAll))];
}

sim::BalancerKind random_balancer(Rng& rng) {
  return sim::kAllBalancers[rng.next_below(std::size(sim::kAllBalancers))];
}

void random_fault_plan(Rng& rng, sim::ScenarioConfig& cfg) {
  const auto n_faults = rng.next_below(3);  // 0, 1 or 2 events
  const auto random_rank = [&] {
    return static_cast<MdsId>(rng.next_below(cfg.n_mds));
  };
  const auto random_tick = [&] {
    // Inside the run, past the first epoch, clear of the final tick.
    const Tick lo = cfg.epoch_ticks;
    const Tick hi = std::max<Tick>(lo + 1, cfg.max_ticks - 10);
    return static_cast<Tick>(
        lo + static_cast<Tick>(rng.next_below(
                 static_cast<std::uint64_t>(hi - lo))));
  };
  for (std::uint64_t f = 0; f < n_faults; ++f) {
    switch (rng.next_below(5)) {
      case 0:
        // Crashing the only MDS is refused at runtime; still generate it so
        // the refusal path is itself fuzzed.
        cfg.faults.crash(random_rank(), random_tick(),
                         static_cast<Tick>(10 + rng.next_below(50)));
        break;
      case 1:
        if (cfg.n_mds >= 2) {
          cfg.faults.lose(random_rank(), random_tick());
        } else {
          cfg.faults.slow(random_rank(), random_tick(),
                          static_cast<Tick>(10 + rng.next_below(50)),
                          0.2 + 0.7 * rng.next_double());
        }
        break;
      case 2:
        cfg.faults.slow(random_rank(), random_tick(),
                        static_cast<Tick>(10 + rng.next_below(50)),
                        0.2 + 0.7 * rng.next_double());
        break;
      case 3:
        cfg.faults.abort_migrations(
            random_tick(),
            rng.next_bool(0.5) ? kNoMds : random_rank());
        break;
      case 4:
        cfg.faults.journal_stall(random_rank(), random_tick(),
                                 static_cast<Tick>(5 + rng.next_below(40)));
        break;
    }
  }
}

}  // namespace

sim::ScenarioConfig generate_config(std::uint64_t seed, std::uint64_t index) {
  // fork() keeps the per-case streams independent: consuming more or fewer
  // draws for case i never shifts case i+1.
  Rng rng = Rng(seed).fork(index * 0x9e3779b97f4a7c15ULL + 1);

  sim::ScenarioConfig cfg;
  cfg.workload = random_workload(rng);
  cfg.balancer = random_balancer(rng);
  cfg.n_mds = 1 + rng.next_below(5);
  cfg.n_clients = 2 + rng.next_below(7);
  cfg.mds_capacity_iops = 500.0 + 250.0 * static_cast<double>(rng.next_below(15));
  cfg.client_rate = 50.0 + 10.0 * static_cast<double>(rng.next_below(16));
  cfg.client_rate_jitter = 0.1 * rng.next_double();
  cfg.client_start_spread = static_cast<Tick>(rng.next_below(11));
  cfg.scale = 0.02 + 0.01 * static_cast<double>(rng.next_below(5));
  cfg.epoch_ticks = rng.next_bool(0.5) ? 10 : 5;
  cfg.max_ticks = static_cast<Tick>(
      8 * cfg.epoch_ticks + static_cast<Tick>(rng.next_below(81)));
  cfg.stop_when_done = !rng.next_bool(0.15);
  cfg.data_enabled = rng.next_bool(0.2);
  if (cfg.data_enabled) {
    cfg.data_capacity = 20000.0 + 20000.0 * rng.next_double();
  }
  cfg.sibling_credit_prob = 0.5 * rng.next_double();
  if (rng.next_bool(0.25)) {
    cfg.replicate_threshold_iops =
        cfg.mds_capacity_iops * (0.25 + 0.75 * rng.next_double());
  }
  if (rng.next_bool(0.4)) {
    cfg.journal.enabled = true;
    cfg.journal.segment_entries =
        static_cast<std::uint32_t>(16 + rng.next_below(497));
    cfg.journal.flush_interval_ticks =
        static_cast<Tick>(1 + rng.next_below(3));
    cfg.journal.max_unflushed_entries = 200 + rng.next_below(19801);
  }
  cfg.migration_max_retries = static_cast<int>(1 + rng.next_below(5));
  cfg.migration_retry_backoff_ticks =
      static_cast<Tick>(2 + rng.next_below(7));
  // Retired knob draw (the hot-path on/off switch).  Kept so every
  // (seed, index) still names the same config as before the switch went.
  (void)rng.next_bool(0.25);
  // Half the cases run the sharded tick engine (1..4 shards) so every
  // oracle — not just shard_equivalence — fuzzes both engines.
  cfg.sharded_ticks =
      rng.next_bool(0.5) ? 0 : static_cast<int>(1 + rng.next_below(4));
  random_fault_plan(rng, cfg);
  cfg.seed = rng.next_u64();

  // Autoscaler knobs are drawn *after* the scenario seed so every config
  // pinned in tests/corpus/ before elasticity existed is reproduced
  // byte-for-byte; only the (previously unused) tail of the stream moves.
  if (rng.next_bool(0.3)) {
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.initial_active =
        static_cast<std::size_t>(1 + rng.next_below(cfg.n_mds));
    cfg.autoscaler.min_ranks = 1;
    cfg.autoscaler.max_ranks = 0;  // whole pool
    cfg.autoscaler.scale_up_utilization = 0.55 + 0.35 * rng.next_double();
    cfg.autoscaler.scale_down_utilization = 0.05 + 0.30 * rng.next_double();
    cfg.autoscaler.hysteresis_epochs = static_cast<int>(1 + rng.next_below(3));
    cfg.autoscaler.cooldown_epochs = static_cast<int>(rng.next_below(5));
  }

  // Proxy knobs come after the autoscaler block for the same
  // corpus-preservation reason: configs pinned before the cache tier
  // existed keep drawing the exact same values for every older knob.
  if (rng.next_bool(0.3)) {
    cfg.proxy.enabled = true;
    cfg.proxy.lease_ticks = static_cast<Tick>(5 + rng.next_below(36));
    cfg.proxy.promote_threshold_iops =
        cfg.mds_capacity_iops * (0.05 + 0.45 * rng.next_double());
    cfg.proxy.max_promoted = 1 + rng.next_below(8);
  }

  // Async journal knobs draw last, again to preserve every pinned corpus
  // config byte-for-byte.  async_mode is armed independently of
  // journal.enabled: with the journal off it must be inert (the
  // async_crash_prefix_consistent oracle checks exactly that), so fuzzing
  // the dead-knob combination is deliberate.
  if (rng.next_bool(0.3)) {
    cfg.journal.async_mode = true;
    cfg.journal.async_high_water_entries = 64 + rng.next_below(4033);
  }

  // Belt and braces: a generated plan must always pass scenario validation.
  cfg.faults.validate(cfg.n_mds, cfg.max_ticks);
  return cfg;
}

}  // namespace lunule::proptest
