#include "sim/scenario_json.h"

#include <array>
#include <optional>
#include <ostream>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "sim/json_export.h"

namespace lunule::sim {

namespace {

using faults::FaultEvent;
using journal::JournalParams;
using mds::AutoscalerParams;
using proxy::ProxyParams;

// -- The knob lists -----------------------------------------------------------
//
// One list per section names each key once, in document order; the writer,
// the loader and the key check below walk these lists and name no key
// themselves.  A field's C++ type picks its JSON form: bool, double (exact
// round-trip), signed integers as int64, unsigned as uint64, enums by
// display name, a nested section as an object and the fault plan as an
// array of fault-event objects.

/// The two knobs whose form their type does not decide.
enum KnobFlags : unsigned {
  kRequired = 1,       // a document without the key is refused
  kDecimalString = 2,  // 64-bit seed: JSON numbers are exact only to 2^53
};

template <typename S, typename T>
struct Knob {
  std::string_view key;
  T S::*field;
  unsigned flags;
};

template <typename S, typename T>
constexpr Knob<S, T> knob(std::string_view key, T S::*field,
                          unsigned flags = 0) {
  return {key, field, flags};
}

template <typename S>
constexpr std::tuple<> kKnobs{};

template <>
constexpr auto kKnobs<ScenarioConfig> = std::tuple{
    knob("workload", &ScenarioConfig::workload),
    knob("balancer", &ScenarioConfig::balancer),
    knob("n_mds", &ScenarioConfig::n_mds),
    knob("n_clients", &ScenarioConfig::n_clients),
    knob("mds_capacity_iops", &ScenarioConfig::mds_capacity_iops),
    knob("client_rate", &ScenarioConfig::client_rate),
    knob("client_rate_jitter", &ScenarioConfig::client_rate_jitter),
    knob("client_start_spread", &ScenarioConfig::client_start_spread),
    knob("scale", &ScenarioConfig::scale),
    knob("max_ticks", &ScenarioConfig::max_ticks),
    knob("epoch_ticks", &ScenarioConfig::epoch_ticks),
    knob("stop_when_done", &ScenarioConfig::stop_when_done),
    knob("data_enabled", &ScenarioConfig::data_enabled),
    knob("data_capacity", &ScenarioConfig::data_capacity),
    knob("sibling_credit_prob", &ScenarioConfig::sibling_credit_prob),
    knob("replicate_threshold_iops",
         &ScenarioConfig::replicate_threshold_iops),
    knob("faults", &ScenarioConfig::faults),
    knob("journal", &ScenarioConfig::journal),
    knob("autoscaler", &ScenarioConfig::autoscaler),
    knob("proxy", &ScenarioConfig::proxy),
    knob("migration_max_retries", &ScenarioConfig::migration_max_retries),
    knob("migration_retry_backoff_ticks",
         &ScenarioConfig::migration_retry_backoff_ticks),
    knob("capture_trace", &ScenarioConfig::capture_trace),
    knob("sharded_ticks", &ScenarioConfig::sharded_ticks),
    knob("seed", &ScenarioConfig::seed, kDecimalString)};

template <>
constexpr auto kKnobs<FaultEvent> = std::tuple{
    knob("kind", &FaultEvent::kind, kRequired),
    knob("mds", &FaultEvent::mds), knob("at_tick", &FaultEvent::at_tick),
    knob("duration", &FaultEvent::duration),
    knob("factor", &FaultEvent::factor)};

template <>
constexpr auto kKnobs<JournalParams> = std::tuple{
    knob("enabled", &JournalParams::enabled),
    knob("segment_entries", &JournalParams::segment_entries),
    knob("flush_interval_ticks", &JournalParams::flush_interval_ticks),
    knob("max_unflushed_entries", &JournalParams::max_unflushed_entries),
    knob("append_cost_ops", &JournalParams::append_cost_ops),
    knob("flush_cost_ops", &JournalParams::flush_cost_ops),
    knob("replay_entries_per_second",
         &JournalParams::replay_entries_per_second),
    knob("replay_base_seconds", &JournalParams::replay_base_seconds),
    knob("replay_capacity_penalty", &JournalParams::replay_capacity_penalty),
    knob("history_decay_per_epoch", &JournalParams::history_decay_per_epoch),
    knob("async_mode", &JournalParams::async_mode),
    knob("async_high_water_entries",
         &JournalParams::async_high_water_entries)};

template <>
constexpr auto kKnobs<AutoscalerParams> = std::tuple{
    knob("enabled", &AutoscalerParams::enabled),
    knob("initial_active", &AutoscalerParams::initial_active),
    knob("min_ranks", &AutoscalerParams::min_ranks),
    knob("max_ranks", &AutoscalerParams::max_ranks),
    knob("scale_up_utilization", &AutoscalerParams::scale_up_utilization),
    knob("scale_down_utilization", &AutoscalerParams::scale_down_utilization),
    knob("saturation_utilization", &AutoscalerParams::saturation_utilization),
    knob("hysteresis_epochs", &AutoscalerParams::hysteresis_epochs),
    knob("cooldown_epochs", &AutoscalerParams::cooldown_epochs)};

template <>
constexpr auto kKnobs<ProxyParams> = std::tuple{
    knob("enabled", &ProxyParams::enabled),
    knob("lease_ticks", &ProxyParams::lease_ticks),
    knob("promote_threshold_iops", &ProxyParams::promote_threshold_iops),
    knob("demote_threshold_iops", &ProxyParams::demote_threshold_iops),
    knob("max_promoted", &ProxyParams::max_promoted)};

template <typename S, typename Fn>
void for_each_knob(Fn&& fn) {
  static_assert(std::tuple_size_v<std::decay_t<decltype(kKnobs<S>)>> != 0,
                "a section needs a knob list");
  std::apply([&](const auto&... k) { (fn(k), ...); }, kKnobs<S>);
}

// -- Enum knobs travel by display name ----------------------------------------

std::string_view name_of(WorkloadKind k) { return workload_name(k); }
std::string_view name_of(BalancerKind k) { return balancer_name(k); }
std::string_view name_of(faults::FaultKind k) {
  switch (k) {
    case faults::FaultKind::kCrash:           return "crash";
    case faults::FaultKind::kPermanentLoss:   return "permanent_loss";
    case faults::FaultKind::kSlowNode:        return "slow_node";
    case faults::FaultKind::kAbortMigrations: return "abort_migrations";
    case faults::FaultKind::kJournalStall:    return "journal_stall";
  }
  return "?";
}

std::optional<WorkloadKind> named(std::string_view name, WorkloadKind) {
  return workload_kind_from_name(name);
}
std::optional<BalancerKind> named(std::string_view name, BalancerKind) {
  return balancer_kind_from_name(name);
}
std::optional<faults::FaultKind> named(std::string_view name,
                                       faults::FaultKind) {
  for (const faults::FaultKind k :
       {faults::FaultKind::kCrash, faults::FaultKind::kPermanentLoss,
        faults::FaultKind::kSlowNode, faults::FaultKind::kAbortMigrations,
        faults::FaultKind::kJournalStall}) {
    if (name_of(k) == name) return k;
  }
  return std::nullopt;
}

// -- Writer, loader and key collector -----------------------------------------

template <typename S>
void write_section(JsonWriter& w, const S& s);

template <typename T>
void write_value(JsonWriter& w, const T& v, unsigned flags) {
  if constexpr (std::is_same_v<T, bool>) {
    w.value(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.value_exact(v);
  } else if constexpr (std::is_enum_v<T>) {
    w.value(name_of(v));
  } else if constexpr (std::is_integral_v<T>) {
    if (flags & kDecimalString) {
      w.value(std::string_view(std::to_string(v)));
    } else if constexpr (std::is_signed_v<T>) {
      w.value(static_cast<std::int64_t>(v));
    } else {
      w.value(static_cast<std::uint64_t>(v));
    }
  } else if constexpr (std::is_same_v<T, faults::FaultPlan>) {
    w.begin_array();
    for (const FaultEvent& e : v.events) write_section(w, e);
    w.end_array();
  } else {
    write_section(w, v);
  }
}

template <typename S>
void write_section(JsonWriter& w, const S& s) {
  w.begin_object();
  for_each_knob<S>([&](const auto& k) {
    w.key(k.key);
    write_value(w, s.*k.field, k.flags);
  });
  w.end_object();
}

/// Reads an integer of type T: every narrowing is range-checked here.
template <typename T>
T load_integer(const JsonValue& x, std::string_view key, unsigned flags) {
  std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t> v = 0;
  if constexpr (std::is_signed_v<T>) {
    v = x.as_int();
  } else if ((flags & kDecimalString) &&
             x.kind() == JsonValue::Kind::kString) {
    v = parse_decimal_u64(x.as_string(), key);
  } else {
    v = x.as_uint();  // the seed also loads from a plain number
  }
  if (!std::in_range<T>(v)) {
    throw JsonError("json number " + std::to_string(v) + " out of range for '" +
                    std::string(key) + "'");
  }
  return static_cast<T>(v);
}

template <typename S>
void load_section(const JsonValue& v, std::string_view section, S& s);

template <typename T>
void load_value(const JsonValue& x, std::string_view key, unsigned flags,
                T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = x.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    out = x.as_double();
  } else if constexpr (std::is_enum_v<T>) {
    const std::optional<T> e = named(x.as_string(), out);
    if (!e) {
      throw JsonError("unknown " + std::string(key) + " '" + x.as_string() +
                      "'");
    }
    out = *e;
  } else if constexpr (std::is_integral_v<T>) {
    out = load_integer<T>(x, key, flags);
  } else if constexpr (std::is_same_v<T, faults::FaultPlan>) {
    for (const JsonValue& e : x.as_array()) {
      load_section(e, key, out.events.emplace_back());
    }
  } else {
    load_section(x, key, out);
  }
}

template <typename S>
constexpr auto keys_of() {
  return std::apply([](const auto&... k) { return std::array{k.key...}; },
                    kKnobs<S>);
}

template <typename S>
void load_section(const JsonValue& v, std::string_view section, S& s) {
  static constexpr auto kKeys = keys_of<S>();
  check_known_keys(v, section, kKeys);
  for_each_knob<S>([&](const auto& k) {
    const JsonValue* x = (k.flags & kRequired) ? &v.at(k.key) : v.find(k.key);
    if (x != nullptr) load_value(*x, k.key, k.flags, s.*k.field);
  });
}

}  // namespace

void write_scenario_config(std::ostream& os, const ScenarioConfig& cfg) {
  JsonWriter w(os);
  write_section(w, cfg);
}

std::string scenario_config_to_json(const ScenarioConfig& cfg) {
  std::ostringstream os;
  write_scenario_config(os, cfg);
  return os.str();
}

ScenarioConfig scenario_config_from_value(const JsonValue& v) {
  ScenarioConfig cfg;
  load_section(v, "scenario config", cfg);
  return cfg;
}

ScenarioConfig scenario_config_from_json(std::string_view text) {
  return scenario_config_from_value(JsonValue::parse(text));
}

}  // namespace lunule::sim
