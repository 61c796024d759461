// ScenarioConfig <-> JSON round-trip coverage (sim/scenario_json.h).
//
// Every knob — including the fault plan and the journal, autoscaler and
// proxy sections — must survive save -> load exactly, and save -> load ->
// save must be byte-identical (repro files in tests/corpus/ rely on this).
// Integers that do not fit their field are refused at load; values that
// load but cannot run are refused at scenario construction.
#include "sim/scenario_json.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/json.h"

namespace lunule::sim {
namespace {

/// A config with every field forced off its default.
ScenarioConfig full_config() {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kMixed;
  cfg.balancer = BalancerKind::kLunuleHash;
  cfg.n_mds = 7;
  cfg.n_clients = 33;
  cfg.mds_capacity_iops = 1234.5;
  cfg.client_rate = 99.25;
  cfg.client_rate_jitter = 0.0625;
  cfg.client_start_spread = 17;
  cfg.scale = 0.123456789012345;
  cfg.max_ticks = 777;
  cfg.epoch_ticks = 7;
  cfg.stop_when_done = false;
  cfg.data_enabled = true;
  cfg.data_capacity = 45000.5;
  cfg.sibling_credit_prob = 0.45;
  cfg.replicate_threshold_iops = 321.75;
  cfg.faults.crash(2, 100, 40)
      .lose(3, 200)
      .slow(1, 50, 30, 0.35)
      .abort_migrations(120, 4)
      .journal_stall(0, 60, 25);
  cfg.journal.enabled = true;
  cfg.journal.segment_entries = 64;
  cfg.journal.flush_interval_ticks = 3;
  cfg.journal.max_unflushed_entries = 500;
  cfg.journal.append_cost_ops = 0.125;
  cfg.journal.flush_cost_ops = 2.5;
  cfg.journal.replay_entries_per_second = 1500.25;
  cfg.journal.replay_base_seconds = 2.75;
  cfg.journal.replay_capacity_penalty = 0.4;
  cfg.journal.history_decay_per_epoch = 0.55;
  cfg.journal.async_mode = true;
  cfg.journal.async_high_water_entries = 321;
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.initial_active = 3;
  cfg.autoscaler.min_ranks = 2;
  cfg.autoscaler.max_ranks = 6;
  cfg.autoscaler.scale_up_utilization = 0.8125;
  cfg.autoscaler.scale_down_utilization = 0.25;
  cfg.autoscaler.saturation_utilization = 0.9;
  cfg.autoscaler.hysteresis_epochs = 4;
  cfg.autoscaler.cooldown_epochs = 5;
  cfg.proxy.enabled = true;
  cfg.proxy.lease_ticks = 13;
  cfg.proxy.promote_threshold_iops = 640.5;
  cfg.proxy.demote_threshold_iops = 12.75;
  cfg.proxy.max_promoted = 5;
  cfg.migration_max_retries = 9;
  cfg.migration_retry_backoff_ticks = 11;
  cfg.capture_trace = true;
  cfg.sharded_ticks = 3;
  cfg.seed = 0xdeadbeefcafef00dULL;  // exercises the > 2^53 seed path
  return cfg;
}

TEST(ScenarioRoundtrip, EveryKnobSurvivesSaveLoad) {
  const ScenarioConfig cfg = full_config();
  const ScenarioConfig back =
      scenario_config_from_json(scenario_config_to_json(cfg));

  EXPECT_EQ(back.workload, cfg.workload);
  EXPECT_EQ(back.balancer, cfg.balancer);
  EXPECT_EQ(back.n_mds, cfg.n_mds);
  EXPECT_EQ(back.n_clients, cfg.n_clients);
  EXPECT_EQ(back.mds_capacity_iops, cfg.mds_capacity_iops);
  EXPECT_EQ(back.client_rate, cfg.client_rate);
  EXPECT_EQ(back.client_rate_jitter, cfg.client_rate_jitter);
  EXPECT_EQ(back.client_start_spread, cfg.client_start_spread);
  EXPECT_EQ(back.scale, cfg.scale);
  EXPECT_EQ(back.max_ticks, cfg.max_ticks);
  EXPECT_EQ(back.epoch_ticks, cfg.epoch_ticks);
  EXPECT_EQ(back.stop_when_done, cfg.stop_when_done);
  EXPECT_EQ(back.data_enabled, cfg.data_enabled);
  EXPECT_EQ(back.data_capacity, cfg.data_capacity);
  EXPECT_EQ(back.sibling_credit_prob, cfg.sibling_credit_prob);
  EXPECT_EQ(back.replicate_threshold_iops, cfg.replicate_threshold_iops);
  EXPECT_EQ(back.faults, cfg.faults);
  EXPECT_EQ(back.journal.enabled, cfg.journal.enabled);
  EXPECT_EQ(back.journal.segment_entries, cfg.journal.segment_entries);
  EXPECT_EQ(back.journal.flush_interval_ticks,
            cfg.journal.flush_interval_ticks);
  EXPECT_EQ(back.journal.max_unflushed_entries,
            cfg.journal.max_unflushed_entries);
  EXPECT_EQ(back.journal.append_cost_ops, cfg.journal.append_cost_ops);
  EXPECT_EQ(back.journal.flush_cost_ops, cfg.journal.flush_cost_ops);
  EXPECT_EQ(back.journal.replay_entries_per_second,
            cfg.journal.replay_entries_per_second);
  EXPECT_EQ(back.journal.replay_base_seconds,
            cfg.journal.replay_base_seconds);
  EXPECT_EQ(back.journal.replay_capacity_penalty,
            cfg.journal.replay_capacity_penalty);
  EXPECT_EQ(back.journal.history_decay_per_epoch,
            cfg.journal.history_decay_per_epoch);
  EXPECT_EQ(back.journal.async_mode, cfg.journal.async_mode);
  EXPECT_EQ(back.journal.async_high_water_entries,
            cfg.journal.async_high_water_entries);
  EXPECT_EQ(back.autoscaler.enabled, cfg.autoscaler.enabled);
  EXPECT_EQ(back.autoscaler.initial_active, cfg.autoscaler.initial_active);
  EXPECT_EQ(back.autoscaler.min_ranks, cfg.autoscaler.min_ranks);
  EXPECT_EQ(back.autoscaler.max_ranks, cfg.autoscaler.max_ranks);
  EXPECT_EQ(back.autoscaler.scale_up_utilization,
            cfg.autoscaler.scale_up_utilization);
  EXPECT_EQ(back.autoscaler.scale_down_utilization,
            cfg.autoscaler.scale_down_utilization);
  EXPECT_EQ(back.autoscaler.saturation_utilization,
            cfg.autoscaler.saturation_utilization);
  EXPECT_EQ(back.autoscaler.hysteresis_epochs,
            cfg.autoscaler.hysteresis_epochs);
  EXPECT_EQ(back.autoscaler.cooldown_epochs, cfg.autoscaler.cooldown_epochs);
  EXPECT_EQ(back.proxy.enabled, cfg.proxy.enabled);
  EXPECT_EQ(back.proxy.lease_ticks, cfg.proxy.lease_ticks);
  EXPECT_EQ(back.proxy.promote_threshold_iops,
            cfg.proxy.promote_threshold_iops);
  EXPECT_EQ(back.proxy.demote_threshold_iops,
            cfg.proxy.demote_threshold_iops);
  EXPECT_EQ(back.proxy.max_promoted, cfg.proxy.max_promoted);
  EXPECT_EQ(back.migration_max_retries, cfg.migration_max_retries);
  EXPECT_EQ(back.migration_retry_backoff_ticks,
            cfg.migration_retry_backoff_ticks);
  EXPECT_EQ(back.capture_trace, cfg.capture_trace);
  EXPECT_EQ(back.sharded_ticks, cfg.sharded_ticks);
  EXPECT_EQ(back.seed, cfg.seed);
}

// The saved bytes of full_config(), pinned.  A renamed key stops committed
// repro files from loading, and a reordered or reformatted one changes
// every saved config; either must show up here first.
constexpr std::string_view kFullConfigJson =
    R"({"workload":"Mixed","balancer":"Lunule-Hash","n_mds":7,"n_clients":33,)"
    R"("mds_capacity_iops":1234.5,"client_rate":99.25,)"
    R"("client_rate_jitter":0.0625,"client_start_spread":17,)"
    R"("scale":0.123456789012345,"max_ticks":777,"epoch_ticks":7,)"
    R"("stop_when_done":false,"data_enabled":true,"data_capacity":45000.5,)"
    R"("sibling_credit_prob":0.45,"replicate_threshold_iops":321.75,)"
    R"("faults":[{"kind":"crash","mds":2,"at_tick":100,"duration":40,)"
    R"("factor":1},{"kind":"permanent_loss","mds":3,"at_tick":200,)"
    R"("duration":0,"factor":1},{"kind":"slow_node","mds":1,"at_tick":50,)"
    R"("duration":30,"factor":0.35},{"kind":"abort_migrations","mds":4,)"
    R"("at_tick":120,"duration":0,"factor":1},{"kind":"journal_stall","mds":0,)"
    R"("at_tick":60,"duration":25,"factor":1}],"journal":{"enabled":true,)"
    R"("segment_entries":64,"flush_interval_ticks":3,)"
    R"("max_unflushed_entries":500,"append_cost_ops":0.125,)"
    R"("flush_cost_ops":2.5,"replay_entries_per_second":1500.25,)"
    R"("replay_base_seconds":2.75,"replay_capacity_penalty":0.4,)"
    R"("history_decay_per_epoch":0.55,"async_mode":true,)"
    R"("async_high_water_entries":321},"autoscaler":{"enabled":true,)"
    R"("initial_active":3,"min_ranks":2,"max_ranks":6,)"
    R"("scale_up_utilization":0.8125,"scale_down_utilization":0.25,)"
    R"("saturation_utilization":0.9,"hysteresis_epochs":4,)"
    R"("cooldown_epochs":5},"proxy":{"enabled":true,"lease_ticks":13,)"
    R"("promote_threshold_iops":640.5,"demote_threshold_iops":12.75,)"
    R"("max_promoted":5},"migration_max_retries":9,)"
    R"("migration_retry_backoff_ticks":11,"capture_trace":true,)"
    R"("sharded_ticks":3,"seed":"16045690984503111693"})";

TEST(ScenarioRoundtrip, SavedBytesArePinned) {
  EXPECT_EQ(scenario_config_to_json(full_config()), kFullConfigJson);
}

TEST(ScenarioRoundtrip, SaveLoadSaveIsByteIdentical) {
  for (const ScenarioConfig& cfg : {ScenarioConfig{}, full_config()}) {
    const std::string once = scenario_config_to_json(cfg);
    const std::string twice =
        scenario_config_to_json(scenario_config_from_json(once));
    EXPECT_EQ(once, twice);
  }
}

TEST(ScenarioRoundtrip, DefaultsApplyWhenKeysAreAbsent) {
  const ScenarioConfig cfg = scenario_config_from_json("{}");
  const ScenarioConfig def;
  EXPECT_EQ(cfg.workload, def.workload);
  EXPECT_EQ(cfg.balancer, def.balancer);
  EXPECT_EQ(cfg.n_mds, def.n_mds);
  EXPECT_EQ(cfg.seed, def.seed);
  EXPECT_TRUE(cfg.faults.empty());
  EXPECT_FALSE(cfg.journal.enabled);

  // A partial document only overrides what it names.
  const ScenarioConfig partial =
      scenario_config_from_json(R"({"n_mds": 3, "seed": 7})");
  EXPECT_EQ(partial.n_mds, 3u);
  EXPECT_EQ(partial.seed, 7u);
  EXPECT_EQ(partial.n_clients, def.n_clients);
}

TEST(ScenarioRoundtrip, UnknownKeysAreRejected) {
  EXPECT_THROW(scenario_config_from_json(R"({"n_mdss": 3})"), JsonError);
  EXPECT_THROW(
      scenario_config_from_json(R"({"journal": {"enabeld": true}})"),
      JsonError);
  EXPECT_THROW(
      scenario_config_from_json(
          R"({"faults": [{"kind": "crash", "tick": 3}]})"),
      JsonError);
}

TEST(ScenarioRoundtrip, MalformedValuesAreRejected) {
  EXPECT_THROW(scenario_config_from_json("{"), JsonError);
  EXPECT_THROW(scenario_config_from_json(R"({"workload": "Quantum"})"),
               JsonError);
  EXPECT_THROW(scenario_config_from_json(R"({"balancer": "Random"})"),
               JsonError);
  EXPECT_THROW(
      scenario_config_from_json(R"({"faults": [{"kind": "meteor"}]})"),
      JsonError);
  EXPECT_THROW(scenario_config_from_json(R"({"n_mds": -2})"), JsonError);
  EXPECT_THROW(scenario_config_from_json(R"({"n_mds": 2.5})"), JsonError);
  EXPECT_THROW(scenario_config_from_json(R"({"seed": "12x"})"), JsonError);
  // Integers that do not fit their field are refused, never wrapped.
  for (const char* doc : {
           R"({"epoch_ticks": 4294967297})",
           R"({"journal": {"segment_entries": 4294967296}})",
           R"({"faults": [{"kind": "crash", "mds": 4294967296}]})",
           R"({"seed": "18446744073709551616"})",
           R"({"max_ticks": 1e19})",
           R"({"max_ticks": 1e300})",
           R"({"max_ticks": -1e19})",
       }) {
    SCOPED_TRACE(doc);
    EXPECT_THROW(static_cast<void>(scenario_config_from_json(doc)),
                 JsonError);
  }

  // Well-formed documents whose values cannot run load fine, then every
  // balancer's scenario construction refuses them with an exception
  // instead of aborting or allocating without bound.
  for (const char* doc : {
           R"({"epoch_ticks": 0})",
           R"({"epoch_ticks": -1})",
           R"({"n_mds": 0})",
           R"({"n_clients": 0})",
           R"({"mds_capacity_iops": 0})",
           R"({"scale": 0})",
           R"({"scale": -1})",
           R"({"data_enabled": true, "data_capacity": 0})",
           R"({"sibling_credit_prob": 1.5})",
           R"({"migration_max_retries": -1})",
           R"({"migration_retry_backoff_ticks": -2})",
           R"({"sharded_ticks": -3})",
           R"({"client_start_spread": -4})",
           R"({"n_mds": 65, "replicate_threshold_iops": 10})",
           R"({"journal": {"enabled": true, "segment_entries": 0}})",
           R"({"journal": {"enabled": true, "flush_interval_ticks": 0}})",
           R"({"proxy": {"enabled": true, "lease_ticks": -1}})",
           R"({"autoscaler": {"enabled": true, "min_ranks": 0}})",
       }) {
    SCOPED_TRACE(doc);
    ScenarioConfig cfg = scenario_config_from_json(doc);
    for (const BalancerKind b :
         {BalancerKind::kVanilla, BalancerKind::kGreedySpill,
          BalancerKind::kLunule, BalancerKind::kLunuleLight,
          BalancerKind::kDirHash, BalancerKind::kLunuleHash,
          BalancerKind::kNone}) {
      cfg.balancer = b;
      EXPECT_THROW(static_cast<void>(make_scenario(cfg)),
                   std::invalid_argument);
    }
  }
}

TEST(ScenarioRoundtrip, LoadedFaultPlanStillValidates) {
  const ScenarioConfig cfg = full_config();
  const ScenarioConfig back =
      scenario_config_from_json(scenario_config_to_json(cfg));
  EXPECT_NO_THROW(back.faults.validate(back.n_mds, back.max_ticks));
}

}  // namespace
}  // namespace lunule::sim
