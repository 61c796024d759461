// ScenarioConfig <-> JSON.
//
// The save side completes what json_export.h started (results and traces
// already serialize); the load side is what makes scenarios *replayable*:
// the property-test harness writes every failing, shrunk configuration as a
// JSON document, and `lunule_proptest --replay` (plus the committed corpus
// under tests/corpus/) reads it back.
//
// Guarantees:
//   * save -> load -> save is byte-identical (doubles use exact formatting,
//     object keys have a fixed order);
//   * load rejects unknown keys with JsonError, so a typo'd knob in a
//     hand-edited repro fails loudly instead of silently running defaults;
//   * load rejects an integer that does not fit its field with JsonError
//     instead of wrapping it;
//   * every key but a fault event's `kind` is optional — absent knobs keep
//     their ScenarioConfig defaults, which keeps committed repro files
//     minimal and stable as new knobs are added.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/json.h"
#include "sim/scenario.h"

namespace lunule::sim {

/// Serializes every ScenarioConfig knob (workload, balancer, cluster shape,
/// fault plan, journal, autoscaler and proxy parameters, seed, ...).
void write_scenario_config(std::ostream& os, const ScenarioConfig& cfg);

[[nodiscard]] std::string scenario_config_to_json(const ScenarioConfig& cfg);

/// Parses a document produced by write_scenario_config (or hand-written with
/// the same keys).  Throws JsonError on malformed input, unknown keys,
/// unknown workload/balancer/fault-kind names, or out-of-domain values.
[[nodiscard]] ScenarioConfig scenario_config_from_json(std::string_view text);

/// Same, from an already-parsed value (used by the repro-file reader, whose
/// documents embed a config object).
[[nodiscard]] ScenarioConfig scenario_config_from_value(const JsonValue& v);

}  // namespace lunule::sim
