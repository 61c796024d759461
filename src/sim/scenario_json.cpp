#include "sim/scenario_json.h"

#include <ostream>
#include <sstream>

#include "sim/json_export.h"

namespace lunule::sim {

namespace {

std::string_view fault_kind_name(faults::FaultKind k) {
  switch (k) {
    case faults::FaultKind::kCrash:           return "crash";
    case faults::FaultKind::kPermanentLoss:   return "permanent_loss";
    case faults::FaultKind::kSlowNode:        return "slow_node";
    case faults::FaultKind::kAbortMigrations: return "abort_migrations";
    case faults::FaultKind::kJournalStall:    return "journal_stall";
  }
  return "?";
}

faults::FaultKind fault_kind_from_name(std::string_view name) {
  for (const faults::FaultKind k :
       {faults::FaultKind::kCrash, faults::FaultKind::kPermanentLoss,
        faults::FaultKind::kSlowNode, faults::FaultKind::kAbortMigrations,
        faults::FaultKind::kJournalStall}) {
    if (fault_kind_name(k) == name) return k;
  }
  throw JsonError("unknown fault kind '" + std::string(name) + "'");
}

/// Every loader below walks the object with this guard so that unknown keys
/// are reported with their enclosing section.
void check_known_keys(const JsonValue& obj, std::string_view section,
                      std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    bool ok = false;
    for (const std::string_view k : known) ok = ok || key == k;
    if (!ok) {
      throw JsonError("unknown key '" + key + "' in " + std::string(section));
    }
  }
}

void load_fault_event(const JsonValue& v, faults::FaultPlan& plan) {
  check_known_keys(v, "fault event",
                   {"kind", "mds", "at_tick", "duration", "factor"});
  faults::FaultEvent e;
  e.kind = fault_kind_from_name(v.at("kind").as_string());
  if (const JsonValue* m = v.find("mds")) {
    e.mds = static_cast<MdsId>(m->as_int());
  }
  if (const JsonValue* t = v.find("at_tick")) {
    e.at_tick = static_cast<Tick>(t->as_int());
  }
  if (const JsonValue* d = v.find("duration")) {
    e.duration = static_cast<Tick>(d->as_int());
  }
  if (const JsonValue* f = v.find("factor")) e.factor = f->as_double();
  plan.events.push_back(e);
}

void load_journal(const JsonValue& v, journal::JournalParams& j) {
  check_known_keys(
      v, "journal",
      {"enabled", "segment_entries", "flush_interval_ticks",
       "max_unflushed_entries", "append_cost_ops", "flush_cost_ops",
       "replay_entries_per_second", "replay_base_seconds",
       "replay_capacity_penalty", "history_decay_per_epoch", "async_mode",
       "async_high_water_entries"});
  if (const JsonValue* x = v.find("enabled")) j.enabled = x->as_bool();
  if (const JsonValue* x = v.find("segment_entries")) {
    j.segment_entries = static_cast<std::uint32_t>(x->as_uint());
  }
  if (const JsonValue* x = v.find("flush_interval_ticks")) {
    j.flush_interval_ticks = static_cast<Tick>(x->as_int());
  }
  if (const JsonValue* x = v.find("max_unflushed_entries")) {
    j.max_unflushed_entries = x->as_uint();
  }
  if (const JsonValue* x = v.find("append_cost_ops")) {
    j.append_cost_ops = x->as_double();
  }
  if (const JsonValue* x = v.find("flush_cost_ops")) {
    j.flush_cost_ops = x->as_double();
  }
  if (const JsonValue* x = v.find("replay_entries_per_second")) {
    j.replay_entries_per_second = x->as_double();
  }
  if (const JsonValue* x = v.find("replay_base_seconds")) {
    j.replay_base_seconds = x->as_double();
  }
  if (const JsonValue* x = v.find("replay_capacity_penalty")) {
    j.replay_capacity_penalty = x->as_double();
  }
  if (const JsonValue* x = v.find("history_decay_per_epoch")) {
    j.history_decay_per_epoch = x->as_double();
  }
  if (const JsonValue* x = v.find("async_mode")) {
    j.async_mode = x->as_bool();
  }
  if (const JsonValue* x = v.find("async_high_water_entries")) {
    j.async_high_water_entries = x->as_uint();
  }
}

void load_autoscaler(const JsonValue& v, mds::AutoscalerParams& a) {
  check_known_keys(
      v, "autoscaler",
      {"enabled", "initial_active", "min_ranks", "max_ranks",
       "scale_up_utilization", "scale_down_utilization",
       "saturation_utilization", "hysteresis_epochs", "cooldown_epochs"});
  if (const JsonValue* x = v.find("enabled")) a.enabled = x->as_bool();
  if (const JsonValue* x = v.find("initial_active")) {
    a.initial_active = static_cast<std::size_t>(x->as_uint());
  }
  if (const JsonValue* x = v.find("min_ranks")) {
    a.min_ranks = static_cast<std::size_t>(x->as_uint());
  }
  if (const JsonValue* x = v.find("max_ranks")) {
    a.max_ranks = static_cast<std::size_t>(x->as_uint());
  }
  if (const JsonValue* x = v.find("scale_up_utilization")) {
    a.scale_up_utilization = x->as_double();
  }
  if (const JsonValue* x = v.find("scale_down_utilization")) {
    a.scale_down_utilization = x->as_double();
  }
  if (const JsonValue* x = v.find("saturation_utilization")) {
    a.saturation_utilization = x->as_double();
  }
  if (const JsonValue* x = v.find("hysteresis_epochs")) {
    a.hysteresis_epochs = static_cast<int>(x->as_int());
  }
  if (const JsonValue* x = v.find("cooldown_epochs")) {
    a.cooldown_epochs = static_cast<int>(x->as_int());
  }
}

void load_proxy(const JsonValue& v, proxy::ProxyParams& p) {
  check_known_keys(v, "proxy",
                   {"enabled", "lease_ticks", "promote_threshold_iops",
                    "demote_threshold_iops", "max_promoted"});
  if (const JsonValue* x = v.find("enabled")) p.enabled = x->as_bool();
  if (const JsonValue* x = v.find("lease_ticks")) {
    p.lease_ticks = static_cast<Tick>(x->as_int());
  }
  if (const JsonValue* x = v.find("promote_threshold_iops")) {
    p.promote_threshold_iops = x->as_double();
  }
  if (const JsonValue* x = v.find("demote_threshold_iops")) {
    p.demote_threshold_iops = x->as_double();
  }
  if (const JsonValue* x = v.find("max_promoted")) {
    p.max_promoted = static_cast<std::size_t>(x->as_uint());
  }
}

}  // namespace

void write_scenario_config(std::ostream& os, const ScenarioConfig& cfg) {
  JsonWriter w(os);
  w.begin_object();
  w.field("workload", workload_name(cfg.workload));
  w.field("balancer", balancer_name(cfg.balancer));
  w.field("n_mds", static_cast<std::uint64_t>(cfg.n_mds));
  w.field("n_clients", static_cast<std::uint64_t>(cfg.n_clients));
  w.field_exact("mds_capacity_iops", cfg.mds_capacity_iops);
  w.field_exact("client_rate", cfg.client_rate);
  w.field_exact("client_rate_jitter", cfg.client_rate_jitter);
  w.field("client_start_spread",
          static_cast<std::int64_t>(cfg.client_start_spread));
  w.field_exact("scale", cfg.scale);
  w.field("max_ticks", static_cast<std::int64_t>(cfg.max_ticks));
  w.field("epoch_ticks", static_cast<std::int64_t>(cfg.epoch_ticks));
  w.field("stop_when_done", cfg.stop_when_done);
  w.field("data_enabled", cfg.data_enabled);
  w.field_exact("data_capacity", cfg.data_capacity);
  w.field_exact("sibling_credit_prob", cfg.sibling_credit_prob);
  w.field_exact("replicate_threshold_iops", cfg.replicate_threshold_iops);

  w.key("faults");
  w.begin_array();
  for (const faults::FaultEvent& e : cfg.faults.events) {
    w.begin_object();
    w.field("kind", fault_kind_name(e.kind));
    w.field("mds", static_cast<std::int64_t>(e.mds));
    w.field("at_tick", static_cast<std::int64_t>(e.at_tick));
    w.field("duration", static_cast<std::int64_t>(e.duration));
    w.field_exact("factor", e.factor);
    w.end_object();
  }
  w.end_array();

  w.key("journal");
  w.begin_object();
  w.field("enabled", cfg.journal.enabled);
  w.field("segment_entries",
          static_cast<std::uint64_t>(cfg.journal.segment_entries));
  w.field("flush_interval_ticks",
          static_cast<std::int64_t>(cfg.journal.flush_interval_ticks));
  w.field("max_unflushed_entries", cfg.journal.max_unflushed_entries);
  w.field_exact("append_cost_ops", cfg.journal.append_cost_ops);
  w.field_exact("flush_cost_ops", cfg.journal.flush_cost_ops);
  w.field_exact("replay_entries_per_second",
                cfg.journal.replay_entries_per_second);
  w.field_exact("replay_base_seconds", cfg.journal.replay_base_seconds);
  w.field_exact("replay_capacity_penalty",
                cfg.journal.replay_capacity_penalty);
  w.field_exact("history_decay_per_epoch",
                cfg.journal.history_decay_per_epoch);
  w.field("async_mode", cfg.journal.async_mode);
  w.field("async_high_water_entries", cfg.journal.async_high_water_entries);
  w.end_object();

  w.key("autoscaler");
  w.begin_object();
  w.field("enabled", cfg.autoscaler.enabled);
  w.field("initial_active",
          static_cast<std::uint64_t>(cfg.autoscaler.initial_active));
  w.field("min_ranks", static_cast<std::uint64_t>(cfg.autoscaler.min_ranks));
  w.field("max_ranks", static_cast<std::uint64_t>(cfg.autoscaler.max_ranks));
  w.field_exact("scale_up_utilization", cfg.autoscaler.scale_up_utilization);
  w.field_exact("scale_down_utilization",
                cfg.autoscaler.scale_down_utilization);
  w.field_exact("saturation_utilization",
                cfg.autoscaler.saturation_utilization);
  w.field("hysteresis_epochs",
          static_cast<std::int64_t>(cfg.autoscaler.hysteresis_epochs));
  w.field("cooldown_epochs",
          static_cast<std::int64_t>(cfg.autoscaler.cooldown_epochs));
  w.end_object();

  w.key("proxy");
  w.begin_object();
  w.field("enabled", cfg.proxy.enabled);
  w.field("lease_ticks", static_cast<std::int64_t>(cfg.proxy.lease_ticks));
  w.field_exact("promote_threshold_iops", cfg.proxy.promote_threshold_iops);
  w.field_exact("demote_threshold_iops", cfg.proxy.demote_threshold_iops);
  w.field("max_promoted",
          static_cast<std::uint64_t>(cfg.proxy.max_promoted));
  w.end_object();

  w.field("migration_max_retries",
          static_cast<std::int64_t>(cfg.migration_max_retries));
  w.field("migration_retry_backoff_ticks",
          static_cast<std::int64_t>(cfg.migration_retry_backoff_ticks));
  w.field("capture_trace", cfg.capture_trace);
  w.field("sharded_ticks", static_cast<std::int64_t>(cfg.sharded_ticks));
  // Seeds use the full 64-bit space; JSON numbers are doubles (exact only up
  // to 2^53), so the seed travels as a decimal string.  The loader accepts
  // small numeric seeds too, for hand-written configs.
  w.field("seed", std::string_view(std::to_string(cfg.seed)));
  w.end_object();
}

std::string scenario_config_to_json(const ScenarioConfig& cfg) {
  std::ostringstream os;
  write_scenario_config(os, cfg);
  return os.str();
}

ScenarioConfig scenario_config_from_value(const JsonValue& v) {
  check_known_keys(
      v, "scenario config",
      {"workload", "balancer", "n_mds", "n_clients", "mds_capacity_iops",
       "client_rate", "client_rate_jitter", "client_start_spread", "scale",
       "max_ticks", "epoch_ticks", "stop_when_done", "data_enabled",
       "data_capacity", "sibling_credit_prob", "replicate_threshold_iops",
       "faults", "journal", "autoscaler", "proxy", "migration_max_retries",
       "migration_retry_backoff_ticks", "capture_trace", "sharded_ticks",
       "seed"});
  ScenarioConfig cfg;
  if (const JsonValue* x = v.find("workload")) {
    const auto k = workload_kind_from_name(x->as_string());
    if (!k) throw JsonError("unknown workload '" + x->as_string() + "'");
    cfg.workload = *k;
  }
  if (const JsonValue* x = v.find("balancer")) {
    const auto k = balancer_kind_from_name(x->as_string());
    if (!k) throw JsonError("unknown balancer '" + x->as_string() + "'");
    cfg.balancer = *k;
  }
  if (const JsonValue* x = v.find("n_mds")) {
    cfg.n_mds = static_cast<std::size_t>(x->as_uint());
  }
  if (const JsonValue* x = v.find("n_clients")) {
    cfg.n_clients = static_cast<std::size_t>(x->as_uint());
  }
  if (const JsonValue* x = v.find("mds_capacity_iops")) {
    cfg.mds_capacity_iops = x->as_double();
  }
  if (const JsonValue* x = v.find("client_rate")) {
    cfg.client_rate = x->as_double();
  }
  if (const JsonValue* x = v.find("client_rate_jitter")) {
    cfg.client_rate_jitter = x->as_double();
  }
  if (const JsonValue* x = v.find("client_start_spread")) {
    cfg.client_start_spread = static_cast<Tick>(x->as_int());
  }
  if (const JsonValue* x = v.find("scale")) cfg.scale = x->as_double();
  if (const JsonValue* x = v.find("max_ticks")) {
    cfg.max_ticks = static_cast<Tick>(x->as_int());
  }
  if (const JsonValue* x = v.find("epoch_ticks")) {
    cfg.epoch_ticks = static_cast<int>(x->as_int());
  }
  if (const JsonValue* x = v.find("stop_when_done")) {
    cfg.stop_when_done = x->as_bool();
  }
  if (const JsonValue* x = v.find("data_enabled")) {
    cfg.data_enabled = x->as_bool();
  }
  if (const JsonValue* x = v.find("data_capacity")) {
    cfg.data_capacity = x->as_double();
  }
  if (const JsonValue* x = v.find("sibling_credit_prob")) {
    cfg.sibling_credit_prob = x->as_double();
  }
  if (const JsonValue* x = v.find("replicate_threshold_iops")) {
    cfg.replicate_threshold_iops = x->as_double();
  }
  if (const JsonValue* x = v.find("faults")) {
    for (const JsonValue& e : x->as_array()) load_fault_event(e, cfg.faults);
  }
  if (const JsonValue* x = v.find("journal")) load_journal(*x, cfg.journal);
  if (const JsonValue* x = v.find("autoscaler")) {
    load_autoscaler(*x, cfg.autoscaler);
  }
  if (const JsonValue* x = v.find("proxy")) load_proxy(*x, cfg.proxy);
  if (const JsonValue* x = v.find("migration_max_retries")) {
    cfg.migration_max_retries = static_cast<int>(x->as_int());
  }
  if (const JsonValue* x = v.find("migration_retry_backoff_ticks")) {
    cfg.migration_retry_backoff_ticks = static_cast<Tick>(x->as_int());
  }
  if (const JsonValue* x = v.find("capture_trace")) {
    cfg.capture_trace = x->as_bool();
  }
  if (const JsonValue* x = v.find("sharded_ticks")) {
    cfg.sharded_ticks = static_cast<int>(x->as_int());
  }
  if (const JsonValue* x = v.find("seed")) {
    if (x->kind() == JsonValue::Kind::kString) {
      const std::string& s = x->as_string();
      if (s.empty()) throw JsonError("empty seed string");
      std::uint64_t seed = 0;
      for (const char c : s) {
        if (c < '0' || c > '9') throw JsonError("malformed seed '" + s + "'");
        seed = seed * 10 + static_cast<std::uint64_t>(c - '0');
      }
      cfg.seed = seed;
    } else {
      cfg.seed = x->as_uint();
    }
  }
  return cfg;
}

ScenarioConfig scenario_config_from_json(std::string_view text) {
  return scenario_config_from_value(JsonValue::parse(text));
}

}  // namespace lunule::sim
