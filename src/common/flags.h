// Minimal --key=value command-line flag parsing for benches and examples.
//
// Supported forms: --key=value, --key value, and bare --flag (boolean true).
// Unknown flags abort with a message listing what was seen, so typos in
// bench invocations fail loudly instead of silently running the default.
// Numeric getters parse the whole value the same way: `--ticks=abc`,
// `--scale=0.1abc` or `--clients=-5` exit 2 naming the flag instead of
// running with whatever prefix parsed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace lunule {

class Flags {
 public:
  Flags(int argc, char** argv);

  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::string get(std::string_view key,
                                std::string_view def = "") const;
  /// A base-10 integer; anything else exits 2.
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t def) const;
  /// A count (--clients, --count, ...): a non-negative base-10 integer;
  /// anything else, a sign included, exits 2.
  [[nodiscard]] std::uint64_t get_count(std::string_view key,
                                        std::uint64_t def) const;
  /// A decimal or scientific floating-point value; anything else exits 2.
  [[nodiscard]] double get_double(std::string_view key, double def) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool def = false) const;

  /// Aborts if any parsed flag was never queried through the getters above.
  /// Call at the end of flag handling to catch misspelled options.
  void check_unused() const;

 private:
  /// The value of `key` (marked used), or null when it was not passed.
  [[nodiscard]] const std::string* find(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> used_;
};

}  // namespace lunule
