// The flight recorder's counter dump: one named value per tally.
//
// Nothing is counted here.  Each name is a read of the one tally that owns
// the count (an engine total, a journal sum, a cluster field), built fresh
// whenever the dump is read (MdsCluster::counter_view), so the dump and the
// reporting layer read the same numbers.
//
// Iteration order is the lexicographic name order (std::map), so counter
// dumps are deterministic — a requirement for byte-identical trace exports.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>

namespace lunule::obs {

class Counters {
 public:
  using Map = std::map<std::string, std::uint64_t, std::less<>>;

  /// Puts `name` in the dump with `value`.  Each name is set at most once.
  void set(std::string_view name, std::uint64_t value) {
    values_.emplace(std::string(name), value);
  }
  /// Puts `name` in the dump only once its tally has counted something, so
  /// a run that never exercises a component carries none of its names.
  void set_nonzero(std::string_view name, std::uint64_t value) {
    if (value > 0) set(name, value);
  }

  /// Value of `name`, or 0 when the dump does not carry it.
  [[nodiscard]] std::uint64_t value(std::string_view name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  /// Every entry in name order; a temporary's map is moved out, so a
  /// range-for over `trace.counters().all()` holds no dangling view.
  [[nodiscard]] const Map& all() const& { return values_; }
  [[nodiscard]] Map all() && { return std::move(values_); }

 private:
  Map values_;
};

}  // namespace lunule::obs
