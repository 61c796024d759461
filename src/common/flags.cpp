#include "common/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace lunule {

namespace {

/// Parses all of `value` as a T (std::from_chars: no sign on unsigned
/// types, no leading '+' or blank), or exits 2 naming the flag.
template <typename T>
T parse_whole(std::string_view key, const std::string& value,
              const char* expected) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "invalid value for --%.*s: '%s' (expected %s)\n",
                 static_cast<int>(key.size()), key.data(), value.c_str(),
                 expected);
    std::exit(2);
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument (expected --key=value): %s\n",
                   argv[i]);
      std::exit(2);
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";
    }
  }
  for (const auto& [k, v] : values_) used_[k] = false;
}

const std::string* Flags::find(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  used_.find(key)->second = true;
  return &it->second;
}

bool Flags::has(std::string_view key) const { return find(key) != nullptr; }

std::string Flags::get(std::string_view key, std::string_view def) const {
  const std::string* v = find(key);
  return v != nullptr ? *v : std::string(def);
}

std::int64_t Flags::get_int(std::string_view key, std::int64_t def) const {
  const std::string* v = find(key);
  return v != nullptr ? parse_whole<std::int64_t>(key, *v, "an integer") : def;
}

std::uint64_t Flags::get_count(std::string_view key, std::uint64_t def) const {
  const std::string* v = find(key);
  return v != nullptr
             ? parse_whole<std::uint64_t>(key, *v, "a non-negative integer")
             : def;
}

double Flags::get_double(std::string_view key, double def) const {
  const std::string* v = find(key);
  return v != nullptr ? parse_whole<double>(key, *v, "a number") : def;
}

bool Flags::get_bool(std::string_view key, bool def) const {
  const std::string* v = find(key);
  return v != nullptr ? *v != "false" && *v != "0" : def;
}

void Flags::check_unused() const {
  bool ok = true;
  for (const auto& [k, used] : used_) {
    if (!used) {
      std::fprintf(stderr, "unknown flag: --%s\n", k.c_str());
      ok = false;
    }
  }
  if (!ok) std::exit(2);
}

}  // namespace lunule
