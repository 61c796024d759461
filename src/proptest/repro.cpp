#include "proptest/repro.h"

#include <fstream>
#include <sstream>

#include "common/json.h"
#include "sim/json_export.h"
#include "sim/scenario_json.h"

namespace lunule::proptest {

namespace {
constexpr std::string_view kFormat = "lunule-proptest-repro-v1";
constexpr std::string_view kKeys[] = {
    "format", "oracle", "generator_seed", "generator_index", "message",
    "config"};
}  // namespace

void write_repro(std::ostream& os, const Repro& repro) {
  sim::JsonWriter w(os);
  w.begin_object();
  w.field("format", kFormat);
  w.field("oracle", std::string_view(repro.oracle));
  w.field("generator_seed",
          std::string_view(std::to_string(repro.generator_seed)));
  w.field("generator_index", repro.generator_index);
  w.field("message", std::string_view(repro.message));
  w.key("config");
  os << sim::scenario_config_to_json(repro.config);
  w.end_object();
  os << '\n';
}

std::string repro_to_json(const Repro& repro) {
  std::ostringstream os;
  write_repro(os, repro);
  return os.str();
}

Repro repro_from_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  check_known_keys(doc, "repro file", kKeys);
  if (const JsonValue* f = doc.find("format")) {
    if (f->as_string() != kFormat) {
      throw JsonError("unsupported repro format '" + f->as_string() + "'");
    }
  }
  Repro r;
  r.oracle = doc.at("oracle").as_string();
  if (const JsonValue* s = doc.find("generator_seed")) {
    r.generator_seed = parse_decimal_u64(s->as_string(), "generator_seed");
  }
  if (const JsonValue* i = doc.find("generator_index")) {
    r.generator_index = i->as_uint();
  }
  if (const JsonValue* m = doc.find("message")) r.message = m->as_string();
  r.config = sim::scenario_config_from_value(doc.at("config"));
  return r;
}

void save_repro_file(const std::string& path, const Repro& repro) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open '" + path + "' for writing");
  write_repro(os, repro);
  if (!os.flush()) throw std::runtime_error("write to '" + path + "' failed");
}

Repro load_repro_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  return repro_from_json(buf.str());
}

}  // namespace lunule::proptest
