// The per-cluster flight recorder: one TraceRing per component behind a
// single enable switch and a simulated-time clock, plus the counter dump.
//
// Ownership and threading: every MdsCluster owns exactly one TraceRecorder,
// and a cluster is only ever driven by one thread (parallel_runner runs
// whole simulations per thread), so recording needs no synchronization —
// the "lock-free-ish" design is simply share-nothing.  The sharded tick
// engine's parallel rank streams record no events; every event comes from
// a serial phase.  The cluster advances the recorder's clock (epoch at
// close, tick at begin_tick); components record events without knowing the
// time, which keeps instrumentation to a one-liner and guarantees all
// events of one tick carry the same stamp.
//
// Cost model: when tracing is disabled, record() is a single branch — the
// event payload is still evaluated at the call site, so instrumentation
// points must only pass values they already have (no formatting, no
// allocation).  Counters cost nothing here: counters() reads them off the
// owning cluster's tallies (obs/counter_registry.h), whatever the switch.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>

#include "obs/counter_registry.h"
#include "obs/trace_ring.h"

namespace lunule::obs {

/// Instrumented components, one ring each.
enum class Component : std::uint8_t {
  kCluster,    // epoch lifecycle, dirfrag splits
  kMonitor,    // load collection + fld forecasts
  kBalancer,   // role decisions and export assignments
  kSelector,   // subtree selection with mIndex terms
  kMigration,  // migration submit/start/finish/abort
  kFaults,     // injected crashes/recoveries/degradations + takeovers
};
inline constexpr std::size_t kComponentCount = 6;

[[nodiscard]] std::string_view component_name(Component c);

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t ring_capacity = 2048);

  /// Master switch for event recording (counters are read, not recorded).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Simulated-time clock; events are stamped with the values current at
  /// record() time.  The owning cluster advances it.
  void set_clock(EpochId epoch, Tick tick) {
    epoch_ = epoch;
    tick_ = tick;
  }
  [[nodiscard]] EpochId epoch() const { return epoch_; }
  [[nodiscard]] Tick tick() const { return tick_; }

  /// Stamps `event` with the clock and appends it to the component's ring.
  /// No-op while disabled.
  void record(Component component, TraceEvent event) {
    if (!enabled_) return;
    event.epoch = epoch_;
    event.tick = tick_;
    rings_[static_cast<std::size_t>(component)].push(event);
  }

  [[nodiscard]] const TraceRing& ring(Component c) const {
    return rings_[static_cast<std::size_t>(c)];
  }

  /// Builds the counter dump; installed by the owning cluster, like
  /// NamespaceTree::set_fragment_hook, so it must not outlive its captures.
  using CounterSource = std::function<Counters()>;
  void set_counter_source(CounterSource source) {
    counter_source_ = std::move(source);
  }
  /// What the source builds now, or an empty set without a source.
  [[nodiscard]] Counters counters() const {
    return counter_source_ ? counter_source_() : Counters{};
  }

 private:
  std::array<TraceRing, kComponentCount> rings_;
  CounterSource counter_source_;
  EpochId epoch_ = -1;
  Tick tick_ = -1;
  bool enabled_ = true;
};

/// True when epoch-boundary invariant checking should run (forwards to
/// lunule::validation_enabled in common/validate.h: release builds opt in
/// with LUNULE_VALIDATE=1, builds without NDEBUG validate always).
[[nodiscard]] bool validation_enabled();

}  // namespace lunule::obs
