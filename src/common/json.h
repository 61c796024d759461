// A minimal JSON document model and parser.
//
// The repo already *writes* JSON deterministically (sim/json_export.h); this
// is the matching read side, used to load ScenarioConfig documents and
// property-test repro files.  Dependency-free by design: a JsonValue is a
// small tagged tree, objects preserve key order (so save -> load -> save is
// byte-identical), and parse errors throw JsonError with an offset, like
// the policy language's PolicyError.
//
// Numbers are stored as doubles — every numeric knob in the simulator fits
// a double exactly (integers up to 2^53), and the writers already print
// through double formatting.  64-bit seeds travel as decimal strings
// (parse_decimal_u64).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lunule {

/// Thrown on malformed documents (with byte-offset info) and on type or
/// missing-key errors during access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Key-ordered (insertion order) object representation.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array(Array items);
  static JsonValue object(Object members);

  /// Parses one JSON document (trailing garbage rejected); throws JsonError.
  static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }

  /// Typed accessors; throw JsonError when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Rejects non-integral numbers and numbers outside int64.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;  // additionally rejects < 0
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup: nullptr when absent; `at` throws when absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Throws JsonError naming the first key of object `obj` that `known` does
/// not list, and its enclosing `section`: a typo'd key in a hand-edited
/// document fails loudly instead of being ignored.
void check_known_keys(const JsonValue& obj, std::string_view section,
                      std::span<const std::string_view> known);

/// Parses `text` as a decimal uint64 (digits only: no sign, blank or
/// exponent), the form 64-bit seeds travel in.  Throws JsonError naming
/// `what` on any other input and on overflow.
[[nodiscard]] std::uint64_t parse_decimal_u64(std::string_view text,
                                              std::string_view what);

}  // namespace lunule
