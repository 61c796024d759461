// Shared scaffolding for the figure/table bench binaries.
//
// Every bench accepts:
//   --scale=X    dataset/request scale multiplier (default per bench)
//   --clients=N  client count (default 100, like the paper)
//   --ticks=N    simulation horizon in seconds
//   --csv        emit CSV instead of aligned tables
//   --buckets=N  time buckets for series printing
//   --seed=N     scenario seed
//   --trace=F    write the flight-recorder JSON dump of the scenario runs
//                to F (one file per run: F, F.2, F.3, ... in run order).
//                Honored by the benches that call dump_trace (currently
//                fig07_throughput and table_overhead); the other binaries
//                accept the flag but write nothing.
//   --json=F     write machine-readable per-cell results to F.  Honored by
//                the benches that read opts.json_path (currently
//                latency_profile and ext_async_journal); the other binaries
//                accept the flag but write nothing.
//
// Each bench ends with a [SHAPE-CHECK] section asserting the paper's
// qualitative claims; the process exit code is non-zero if any check fails,
// so the bench suite doubles as a reproduction regression test.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/flags.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace lunule::bench {

struct BenchOptions {
  double scale = 0.25;
  std::size_t clients = 100;
  Tick ticks = 1800;
  std::uint64_t seed = 42;
  std::string trace_path;  // empty = no trace dump
  std::string json_path;   // empty = no machine-readable result file
  sim::ReportOptions report;

  static BenchOptions parse(int argc, char** argv, double default_scale,
                            Tick default_ticks,
                            std::size_t default_clients = 100) {
    Flags flags(argc, argv);
    BenchOptions o;
    o.scale = flags.get_double("scale", default_scale);
    o.clients = static_cast<std::size_t>(
        flags.get_count("clients", default_clients));
    o.ticks = flags.get_int("ticks", default_ticks);
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    o.report.csv = flags.get_bool("csv", false);
    o.report.buckets = static_cast<std::size_t>(flags.get_count("buckets", 12));
    o.trace_path = flags.get("trace", "");
    o.json_path = flags.get("json", "");
    flags.check_unused();
    // Out-of-range flags (--scale=0, --clients=0) are usage errors: exit 2
    // like an unknown flag instead of aborting inside the first scenario.
    try {
      sim::validate_scenario_config(
          o.config(sim::WorkloadKind::kZipf, sim::BalancerKind::kLunule));
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      std::exit(2);
    }
    return o;
  }

  /// Writes `result`'s flight-recorder dump when --trace was given.  The
  /// first dump goes to the given path, later ones to path.2, path.3, ...
  /// so multi-scenario benches keep every run.  Call sites that never dump
  /// pay nothing.
  void dump_trace(const sim::ScenarioResult& result) {
    if (trace_path.empty()) return;
    ++trace_dumps_;
    std::string path = trace_path;
    if (trace_dumps_ > 1) path += "." + std::to_string(trace_dumps_);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write trace to " << path << "\n";
      return;
    }
    out << result.trace_json << "\n";
    std::cout << "trace written to " << path << "\n";
  }

  [[nodiscard]] sim::ScenarioConfig config(sim::WorkloadKind w,
                                           sim::BalancerKind b) const {
    sim::ScenarioConfig cfg;
    cfg.workload = w;
    cfg.balancer = b;
    cfg.n_clients = clients;
    cfg.scale = scale;
    cfg.max_ticks = ticks;
    cfg.seed = seed;
    cfg.capture_trace = !trace_path.empty();
    return cfg;
  }

 private:
  int trace_dumps_ = 0;
};

inline int finish(const sim::ShapeChecker& checks) {
  checks.print(std::cout);
  return checks.exit_code();
}

}  // namespace lunule::bench
