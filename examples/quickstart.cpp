// Quickstart: run one workload under two balancers and compare.
//
// Builds a 5-MDS cluster, runs the Filebench-Zipfian workload (100 clients,
// each reading its private directory with Zipf-distributed popularity) under
// CephFS-Vanilla and under Lunule, and prints the imbalance factor and the
// aggregate metadata throughput of both.
//
//   ./quickstart [--workload=cnn|nlp|web|zipf|md] [--clients=N] [--scale=X]
//                [--trace=FILE]
//
// With --trace=FILE the flight-recorder dump of each run is written as JSON
// (FILE for the first run, FILE.2 for the second): every balancer decision,
// subtree selection, and migration event with its inputs.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace {

lunule::sim::WorkloadKind parse_workload(const std::string& name) {
  using lunule::sim::WorkloadKind;
  if (name == "cnn") return WorkloadKind::kCnn;
  if (name == "nlp") return WorkloadKind::kNlp;
  if (name == "web") return WorkloadKind::kWeb;
  if (name == "zipf") return WorkloadKind::kZipf;
  if (name == "md") return WorkloadKind::kMd;
  if (name == "mixed") return WorkloadKind::kMixed;
  std::cerr << "unknown workload: " << name << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lunule;
  Flags flags(argc, argv);
  sim::ScenarioConfig cfg;
  cfg.workload = parse_workload(flags.get("workload", "zipf"));
  cfg.n_clients = static_cast<std::size_t>(flags.get_count("clients", 100));
  cfg.scale = flags.get_double("scale", 0.5);
  cfg.max_ticks = flags.get_int("ticks", 1800);
  const bool verbose = flags.get_bool("verbose", false);
  const std::string trace_path = flags.get("trace", "");
  cfg.capture_trace = !trace_path.empty();
  flags.check_unused();

  std::cout << "Workload: " << sim::workload_name(cfg.workload) << ", "
            << cfg.n_clients << " clients, " << cfg.n_mds << " MDSs, C="
            << cfg.mds_capacity_iops << " IOPS\n\n";

  std::vector<sim::ScenarioResult> results;
  for (const auto kind :
       {sim::BalancerKind::kVanilla, sim::BalancerKind::kLunule}) {
    cfg.balancer = kind;
    sim::ScenarioResult r = sim::run_scenario(cfg);
    std::cout << "--- " << r.balancer << " ---\n"
              << "  run length          : " << r.end_tick << " s (simulated)\n"
              << "  mean imbalance IF   : " << r.metrics.mean_if() << "\n"
              << "  peak aggregate IOPS : " << r.metrics.peak_aggregate_iops()
              << "\n"
              << "  total served        : " << r.total_served << "\n"
              << "  migrated inodes     : " << r.migrated_total << " in "
              << r.migrations_completed << " migrations\n"
              << "  jobs completed      : " << r.clients_done << "/"
              << r.n_clients << "\n\n";
    if (verbose) {
      sim::ReportOptions opts;
      sim::print_per_mds_iops(std::cout, r.balancer + ": per-MDS IOPS",
                              r.metrics, opts);
      const std::vector<double> ifs = r.metrics.if_values();
      const std::vector<double> migrated = r.metrics.migrated_inodes();
      sim::print_series(std::cout, r.balancer + ": IF / migrated",
                        {{"IF", ifs}, {"migrated", migrated}},
                        r.metrics.epoch_seconds(), /*digits=*/3, opts);
    }
    if (!trace_path.empty()) {
      std::string path = trace_path;
      if (!results.empty()) path += "." + std::to_string(results.size() + 1);
      std::ofstream out(path);
      if (out) {
        out << r.trace_json << "\n";
        std::cout << "  trace written to " << path << "\n\n";
      } else {
        std::cerr << "cannot write trace to " << path << "\n";
      }
    }
    results.push_back(std::move(r));
  }
  if (results[1].metrics.mean_if() < results[0].metrics.mean_if()) {
    std::cout << "Lunule achieved the better balance (lower mean IF), as in\n"
                 "Figs. 6-7 of the SC '21 paper.\n";
  } else {
    std::cout << "NOTE: Lunule did not beat Vanilla here; try a larger\n"
                 "--scale or more --ticks.\n";
  }
  return 0;
}
