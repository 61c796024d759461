#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace lunule {

namespace {

std::string kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull:   return "null";
    case JsonValue::Kind::kBool:   return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray:  return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(JsonValue::Kind want, JsonValue::Kind got) {
  throw JsonError("json type error: expected " + kind_name(want) + ", got " +
                  kind_name(got));
}

class Parser {
 public:
  explicit Parser(std::string_view src) : src_(src) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != src_.size()) fail("trailing input after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < src_.size() &&
           (src_[pos_] == ' ' || src_[pos_] == '\t' || src_[pos_] == '\n' ||
            src_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= src_.size()) fail("unexpected end of input");
    return src_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < src_.size() && src_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_word(std::string_view word) {
    skip_ws();
    if (src_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (eat_word("true")) return JsonValue::boolean(true);
        fail("malformed literal");
      case 'f':
        if (eat_word("false")) return JsonValue::boolean(false);
        fail("malformed literal");
      case 'n':
        if (eat_word("null")) return JsonValue::null();
        fail("malformed literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    if (eat('}')) return JsonValue::object(std::move(members));
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      if (eat(',')) continue;
      expect('}');
      return JsonValue::object(std::move(members));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array items;
    if (eat(']')) return JsonValue::array(std::move(items));
    while (true) {
      items.push_back(parse_value());
      if (eat(',')) continue;
      expect(']');
      return JsonValue::array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= src_.size()) fail("unterminated string");
      const char c = src_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= src_.size()) fail("unterminated escape");
      const char e = src_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > src_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = src_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("malformed \\u escape");
          }
          // The writers only ever emit \u00XX for control characters; encode
          // the general case as UTF-8 anyway.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    std::size_t end = pos_;
    if (end < src_.size() && (src_[end] == '-' || src_[end] == '+')) ++end;
    bool any = false;
    while (end < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[end])) ||
            src_[end] == '.' || src_[end] == 'e' || src_[end] == 'E' ||
            ((src_[end] == '+' || src_[end] == '-') &&
             (src_[end - 1] == 'e' || src_[end - 1] == 'E')))) {
      ++end;
      any = true;
    }
    if (!any) fail("unexpected character");
    const std::string text(src_.substr(pos_, end - pos_));
    char* parsed_end = nullptr;
    const double value = std::strtod(text.c_str(), &parsed_end);
    if (parsed_end != text.c_str() + text.size()) fail("malformed number");
    pos_ = end;
    return JsonValue::number(value);
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(Array items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(Object members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

JsonValue JsonValue::parse(std::string_view text) {
  Parser p(text);
  return p.parse_document();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) type_error(Kind::kBool, kind_);
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) type_error(Kind::kNumber, kind_);
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double d = as_double();
  // Range first: converting a double outside int64 is undefined.
  if (!(d >= -0x1p63 && d < 0x1p63)) {
    throw JsonError("json number is out of integer range");
  }
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    throw JsonError("json number is not an integer");
  }
  return i;
}

std::uint64_t JsonValue::as_uint() const {
  const std::int64_t i = as_int();
  if (i < 0) throw JsonError("json number is negative");
  return static_cast<std::uint64_t>(i);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) type_error(Kind::kString, kind_);
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) type_error(Kind::kArray, kind_);
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) type_error(Kind::kObject, kind_);
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* v = find(key)) return *v;
  throw JsonError("missing json key '" + std::string(key) + "'");
}

void check_known_keys(const JsonValue& obj, std::string_view section,
                      std::span<const std::string_view> known) {
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw JsonError("unknown key '" + key + "' in " + std::string(section));
    }
  }
}

std::uint64_t parse_decimal_u64(std::string_view text, std::string_view what) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw JsonError(std::string(what) + " '" + std::string(text) +
                    "' is not a decimal uint64");
  }
  return v;
}

}  // namespace lunule
