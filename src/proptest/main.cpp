// lunule_proptest — property-based scenario fuzzing CLI.
//
//   lunule_proptest --seed 1 --count 200          # fixed-size campaign
//   lunule_proptest --budget 600 --out repros     # fuzz for 600 seconds
//   lunule_proptest --replay tests/corpus/x.json  # re-check one repro
//   lunule_proptest --replay-dir tests/corpus     # re-check the corpus
//   lunule_proptest --list-oracles                # what gets checked
//   lunule_proptest --dump-configs 5 --seed 9     # generated-config JSON
//   lunule_proptest --digest-configs 40 --seed 1  # output digests per balancer
//
// Exit status: 0 = everything passed, 1 = at least one oracle failure (or
// failing corpus file), 2 = usage / I/O error.  See docs/TESTING.md.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <system_error>

#include "common/flags.h"
#include "obs/trace_recorder.h"
#include "proptest/generator.h"
#include "proptest/oracles.h"
#include "proptest/runner.h"
#include "sim/json_export.h"
#include "sim/scenario.h"
#include "sim/scenario_json.h"

namespace {

using namespace lunule;

int run(int argc, char** argv) {
  Flags flags(argc, argv);

  if (flags.get_bool("list-oracles")) {
    flags.check_unused();
    for (const proptest::Oracle& o : proptest::all_oracles()) {
      std::cout << o.name << "\n    " << o.description << "\n";
    }
    return 0;
  }

  if (flags.has("dump-configs")) {
    const std::uint64_t n = flags.get_count("dump-configs", 5);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.check_unused();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::cout << sim::scenario_config_to_json(
                       proptest::generate_config(seed, i))
                << "\n";
    }
    return 0;
  }

  if (flags.has("digest-configs")) {
    // Byte-identity sweep: every generated config under every balancer,
    // trace on, one line of FNV digests (result JSON, trace) per run.  Two
    // builds that must not move any output print identical lines.
    const std::uint64_t n = flags.get_count("digest-configs", 40);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.check_unused();
    for (std::uint64_t i = 0; i < n; ++i) {
      sim::ScenarioConfig cfg = proptest::generate_config(seed, i);
      cfg.capture_trace = true;
      for (const sim::BalancerKind b : sim::kAllBalancers) {
        cfg.balancer = b;
        const sim::ScenarioResult r = sim::run_scenario(cfg);
        std::printf("%llu %lld %s result=0x%016llx trace=0x%016llx\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<long long>(i),
                    std::string(sim::balancer_name(b)).c_str(),
                    static_cast<unsigned long long>(
                        proptest::digest64(sim::to_json(r))),
                    static_cast<unsigned long long>(
                        proptest::digest64(r.trace_json)));
      }
    }
    return 0;
  }

  if (flags.has("replay")) {
    const std::string path = flags.get("replay");
    flags.check_unused();
    return proptest::replay_file(path, std::cout) == 0 ? 0 : 1;
  }

  if (flags.has("replay-dir")) {
    const std::string dir = flags.get("replay-dir");
    flags.check_unused();
    return proptest::replay_dir(dir, std::cout) == 0 ? 0 : 1;
  }

  proptest::RunOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.count = flags.get_count("count", 100);
  // --budget accepts plain seconds or a trailing 's' ("--budget 600s"),
  // parsed whole like every other numeric flag.
  if (flags.has("budget")) {
    std::string budget = flags.get("budget");
    if (!budget.empty() && budget.back() == 's') budget.pop_back();
    const char* end = budget.data() + budget.size();
    const auto [ptr, ec] =
        std::from_chars(budget.data(), end, options.budget_seconds);
    if (ec != std::errc{} || ptr != end || options.budget_seconds <= 0.0) {
      std::cerr << "lunule_proptest: bad --budget value\n";
      return 2;
    }
  }
  options.oracle_filter = flags.get("oracle");
  options.out_dir = flags.get("out", ".");
  options.no_shrink = flags.get_bool("no-shrink");
  options.verbose = flags.get_bool("verbose");
  flags.check_unused();

  if (!obs::validation_enabled()) {
    std::cout << "note: invariant validation is off in this build; run a "
                 "Debug build or set LUNULE_VALIDATE=1 for full checking\n";
  }

  const proptest::RunSummary summary = proptest::run_fuzz(options, std::cout);
  return summary.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "lunule_proptest: " << e.what() << "\n";
    return 2;
  }
}
