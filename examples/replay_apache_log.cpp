// Replay a real (or synthetic) Apache access log against the simulated
// metadata cluster.
//
// With --log=<path>, the file is parsed as Common Log Format; every
// distinct URL path becomes a file in a freshly built namespace, and the
// requests are replayed in order by the client fleet under both the
// CephFS built-in balancer and Lunule.  Without --log, a synthetic trace
// with the Web workload's statistics is generated, written through the
// CLF formatter, and imported back — exercising the same pipeline a real
// log takes.
//
//   ./replay_apache_log [--log=/path/access.log] [--clients=N] [--ticks=N]
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/flags.h"
#include "common/table.h"
#include "fs/builder.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "workloads/apache_log.h"

namespace {

/// Generates demo CLF text through the same formatter a real server's log
/// would be parsed from.
std::string synthetic_log_text() {
  using namespace lunule;
  fs::NamespaceTree tree;
  const auto layout = fs::build_web_tree(tree, "site", 8, 8, 40);
  const workloads::WebTrace trace(layout.leaf_dirs, 40, 60000, 0.9,
                                  Rng(2024));
  std::ostringstream os;
  workloads::write_log(os, tree, trace);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lunule;
  Flags flags(argc, argv);
  const std::string log_path = flags.get("log", "");
  const std::size_t n_clients =
      static_cast<std::size_t>(flags.get_count("clients", 100));
  const Tick max_ticks = flags.get_int("ticks", 1200);
  flags.check_unused();

  // 1. Obtain and import the log.
  workloads::ImportedLog imported;
  if (!log_path.empty()) {
    std::ifstream file(log_path);
    if (!file) {
      std::cerr << "cannot open " << log_path << "\n";
      return 2;
    }
    imported = workloads::import_log(file);
    std::cout << "Imported " << log_path << ": ";
  } else {
    std::istringstream demo(synthetic_log_text());
    imported = workloads::import_log(demo);
    std::cout << "Imported synthetic demo log: ";
  }
  std::cout << imported.records.size() << " requests over "
            << imported.distinct_files << " files ("
            << imported.malformed_lines << " malformed lines skipped)\n\n";
  if (imported.records.empty()) {
    std::cerr << "nothing to replay\n";
    return 2;
  }

  // 2. Replay under both balancers.  The namespace is rebuilt per run
  //    (simulations mutate authority and access state).
  TablePrinter table({"Balancer", "mean IF", "sustained IOPS",
                      "completion (s)", "forwards"});
  for (const auto kind :
       {sim::BalancerKind::kVanilla, sim::BalancerKind::kLunule}) {
    std::istringstream source(log_path.empty() ? synthetic_log_text() : "");
    workloads::ImportedLog run_log;
    if (log_path.empty()) {
      run_log = workloads::import_log(source);
    } else {
      std::ifstream file(log_path);
      run_log = workloads::import_log(file);
    }
    auto trace = std::make_shared<workloads::WebTrace>(
        workloads::WebTrace::from_records(std::move(run_log.records),
                                          run_log.distinct_files));

    sim::ScenarioConfig cfg;
    cfg.balancer = kind;
    cfg.n_mds = 5;
    cfg.n_clients = n_clients;
    cfg.max_ticks = max_ticks;
    sim::Simulation sim(cfg, std::move(run_log.tree));

    Rng rng(7);
    // Each client replays several passes' worth of its trace share so the
    // balancers have time to act (short logs wrap around).
    const std::uint64_t per_client = std::max<std::uint64_t>(
        5 * trace->records().size() / std::max<std::size_t>(1, n_clients),
        2000);
    for (std::uint32_t c = 0; c < n_clients; ++c) {
      sim.add_client(std::make_unique<workloads::Client>(
          c, workloads::ClientParams{.max_ops_per_tick = 150.0},
          std::make_unique<workloads::WebReplayProgram>(
              trace, rng.next_below(trace->records().size()), per_client,
              0.572)));
    }
    sim.run();

    const double sustained =
        static_cast<double>(sim.cluster().total_served()) /
        std::max<double>(1.0, static_cast<double>(sim.end_tick()));
    table.add_row({std::string(sim::balancer_name(kind)),
                   TablePrinter::fmt(sim.metrics().mean_if(), 3),
                   TablePrinter::fmt(sustained, 0),
                   TablePrinter::fmt(static_cast<std::int64_t>(sim.end_tick())),
                   TablePrinter::fmt(sim.cluster().total_forwards())});
  }
  table.print(std::cout, "Log replay: Vanilla vs Lunule");
  return 0;
}
