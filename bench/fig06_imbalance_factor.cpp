// Figure 6: imbalance factor over time for the five workloads under the
// four balancers (Vanilla, GreedySpill, Lunule-Light, Lunule).
//
// Shapes reproduced: GreedySpill is the worst (IF near 1 on scans);
// Vanilla handles Web well but fails CNN/NLP; Lunule achieves the lowest
// IF overall; Lunule-Light trails Lunule on the spatial workloads
// (CNN/NLP) but matches it on Zipf/Web/MD — the paper's ablation.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "sim/parallel_runner.h"
#include "common/table.h"

namespace lunule {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
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
                        "Lunule", "Lunule vs best baseline"});

  // The 20 cells are independent deterministic simulations: run them on
  // all cores.
  std::vector<sim::ScenarioConfig> configs;
  for (const sim::WorkloadKind w : workloads) {
    for (const sim::BalancerKind b : balancers) {
      configs.push_back(opts.config(w, b));
    }
  }
  const std::vector<sim::ScenarioResult> all = sim::run_scenarios(configs);

  // Every cell runs with the bench's epoch length.
  const double epoch_seconds = all.front().metrics.epoch_seconds();
  std::size_t cell = 0;
  for (const sim::WorkloadKind w : workloads) {
    std::map<sim::BalancerKind, sim::ScenarioResult> results;
    std::vector<std::vector<double>> if_values;
    for (const sim::BalancerKind b : balancers) {
      const sim::ScenarioResult& r = all[cell++];
      results.emplace(b, r);
      if_values.push_back(r.metrics.if_values());
    }
    std::vector<sim::SeriesColumn> columns;
    for (std::size_t i = 0; i < if_values.size(); ++i) {
      columns.push_back({sim::balancer_name(balancers[i]), if_values[i]});
    }
    sim::print_series(
        std::cout,
        "Figure 6: IF over time, " + std::string(sim::workload_name(w)),
        columns, epoch_seconds, /*digits=*/3, opts.report);

    const auto mean_if = [&](sim::BalancerKind b) {
      return results.at(b).metrics.mean_if();
    };
    const double vanilla = mean_if(sim::BalancerKind::kVanilla);
    const double greedy = mean_if(sim::BalancerKind::kGreedySpill);
    const double light = mean_if(sim::BalancerKind::kLunuleLight);
    const double lunule = mean_if(sim::BalancerKind::kLunule);
    const double best_baseline = std::min(vanilla, greedy);
    summary.add_row(
        {std::string(sim::workload_name(w)), TablePrinter::fmt(vanilla, 3),
         TablePrinter::fmt(greedy, 3), TablePrinter::fmt(light, 3),
         TablePrinter::fmt(lunule, 3),
         TablePrinter::pct(lunule / best_baseline - 1.0)});

    checks.expect(lunule < vanilla,
                  std::string(sim::workload_name(w)) +
                      ": Lunule mean IF below Vanilla");
    checks.expect(lunule < greedy,
                  std::string(sim::workload_name(w)) +
                      ": Lunule mean IF below GreedySpill");
    if (w == sim::WorkloadKind::kCnn || w == sim::WorkloadKind::kNlp) {
      checks.expect(lunule < light,
                    std::string(sim::workload_name(w)) +
                        ": workload-aware selection beats -Light on "
                        "spatial workloads (ablation)");
      checks.expect(greedy > 2.0 * lunule,
                    std::string(sim::workload_name(w)) +
                        ": GreedySpill far behind Lunule on scans");
    }
  }

  if (opts.report.csv) {
    summary.print_csv(std::cout);
  } else {
    summary.print(std::cout, "Figure 6 summary: mean IF (lower is better)");
  }
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
