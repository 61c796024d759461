// Figure 7: aggregate metadata throughput over time for the five workloads
// under the four balancers.
//
// Shapes reproduced: throughput correlates negatively with the IF values of
// Figure 6; Lunule delivers the largest gains on the spatial workloads
// (paper: 2.81x over Vanilla on CNN, 1.76x on NLP) and smaller-but-positive
// gains on the skewed ones (Zipf/Web/MD).
#include <iostream>
#include <map>

#include "bench_common.h"
#include "sim/parallel_runner.h"
#include "common/table.h"

namespace lunule {
namespace {

int run(int argc, char** argv) {
  bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.2, /*ticks=*/1500);
  const sim::WorkloadKind workloads[] = {
      sim::WorkloadKind::kCnn, sim::WorkloadKind::kNlp,
      sim::WorkloadKind::kZipf, sim::WorkloadKind::kWeb,
      sim::WorkloadKind::kMd};
  const sim::BalancerKind balancers[] = {
      sim::BalancerKind::kVanilla, sim::BalancerKind::kGreedySpill,
      sim::BalancerKind::kLunuleLight, sim::BalancerKind::kLunule};

  sim::ShapeChecker checks;
  TablePrinter summary({"Workload", "Vanilla", "GreedySpill", "Lunule-Light",
                        "Lunule", "Lunule vs Vanilla"});

  // The 20 cells are independent deterministic simulations: run them on
  // all cores.
  std::vector<sim::ScenarioConfig> configs;
  for (const sim::WorkloadKind w : workloads) {
    for (const sim::BalancerKind b : balancers) {
      configs.push_back(opts.config(w, b));
    }
  }
  const std::vector<sim::ScenarioResult> all = sim::run_scenarios(configs);
  for (const sim::ScenarioResult& r : all) opts.dump_trace(r);

  // Every cell runs with the bench's epoch length.
  const double epoch_seconds = all.front().metrics.epoch_seconds();
  std::size_t cell = 0;
  for (const sim::WorkloadKind w : workloads) {
    std::map<sim::BalancerKind, sim::ScenarioResult> results;
    std::vector<std::vector<double>> aggregate;
    for (const sim::BalancerKind b : balancers) {
      const sim::ScenarioResult& r = all[cell++];
      results.emplace(b, r);
      aggregate.push_back(r.metrics.aggregate_iops());
    }
    std::vector<sim::SeriesColumn> columns;
    for (std::size_t i = 0; i < aggregate.size(); ++i) {
      columns.push_back({sim::balancer_name(balancers[i]), aggregate[i]});
    }
    sim::print_series(
        std::cout,
        "Figure 7: aggregate IOPS, " + std::string(sim::workload_name(w)),
        columns, epoch_seconds, /*digits=*/3, opts.report);

    const auto sustained = [&](sim::BalancerKind b) {
      return results.at(b).sustained_iops();
    };
    const double vanilla = sustained(sim::BalancerKind::kVanilla);
    const double greedy = sustained(sim::BalancerKind::kGreedySpill);
    const double light = sustained(sim::BalancerKind::kLunuleLight);
    const double lunule = sustained(sim::BalancerKind::kLunule);
    summary.add_row(
        {std::string(sim::workload_name(w)), TablePrinter::fmt(vanilla, 0),
         TablePrinter::fmt(greedy, 0), TablePrinter::fmt(light, 0),
         TablePrinter::fmt(lunule, 0),
         TablePrinter::pct(lunule / vanilla - 1.0)});

    checks.expect(lunule >= vanilla * 0.98,
                  std::string(sim::workload_name(w)) +
                      ": Lunule sustained throughput at least matches "
                      "Vanilla");
    if (w == sim::WorkloadKind::kCnn || w == sim::WorkloadKind::kNlp) {
      checks.expect(lunule > vanilla * 1.15,
                    std::string(sim::workload_name(w)) +
                        ": Lunule clearly ahead on spatial workloads "
                        "(paper: 1.76-2.81x)");
      checks.expect(lunule > light * 1.05,
                    std::string(sim::workload_name(w)) +
                        ": workload-aware selection contributes beyond "
                        "the IF model alone");
    }
  }

  if (opts.report.csv) {
    summary.print_csv(std::cout);
  } else {
    summary.print(std::cout,
                  "Figure 7 summary: sustained metadata IOPS "
                  "(higher is better)");
  }
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
