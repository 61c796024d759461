// JSON serialization of scenario results.
//
// Every bench already prints aligned tables (and CSV with --csv); this
// module serializes a full ScenarioResult — including the per-MDS time
// series — as a single self-describing JSON document, for plotting
// notebooks and external tooling.  The writer is dependency-free and emits
// deterministic output (fixed key order, shortest-round-trip numbers are
// not required: doubles print with enough digits to reproduce the plots).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace_recorder.h"
#include "sim/scenario.h"

namespace lunule::sim {

/// A minimal JSON writer: values are appended through typed helpers and
/// escaping is handled centrally.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits `"key":` (with a leading comma when needed).
  void key(std::string_view name);

  void value(std::string_view s);
  void value(double v);
  /// Exact round-trip double formatting (shortest of %.15g / %.17g that
  /// strtod's back to the same bits); config documents use this so that
  /// save -> load -> save is the identity on every knob.
  void value_exact(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(bool b);

  /// Convenience: key + value.
  template <typename T>
  void field(std::string_view name, T v) {
    key(name);
    value(v);
  }

  /// Key + exact-round-trip double.
  void field_exact(std::string_view name, double v) {
    key(name);
    value_exact(v);
  }

 private:
  void separator();
  void escaped(std::string_view s);

  std::ostream& os_;
  // Tracks whether a separator is needed at each nesting level.
  std::string needs_comma_;  // stack of 0/1 flags
};

/// Serializes a whole result, including all per-MDS series, the IF /
/// aggregate / migrated series, totals and job-completion times.
void write_result(std::ostream& os, const ScenarioResult& result);

/// Convenience wrapper returning the document as a string.
[[nodiscard]] std::string to_json(const ScenarioResult& result);

/// Serializes a flight recorder: the counters (in name order)
/// and each component's ring (events oldest-first, with drop accounting).
/// Events carry only simulated time, so the document is byte-identical
/// across runs of the same seeded scenario.
void write_trace(std::ostream& os, const obs::TraceRecorder& trace);

/// Convenience wrapper returning the trace document as a string.
[[nodiscard]] std::string trace_to_json(const obs::TraceRecorder& trace);

}  // namespace lunule::sim
