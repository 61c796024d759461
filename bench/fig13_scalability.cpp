// Figure 13: (a) MDS-cluster scalability under the MDtest-create workload
// (1..16 MDSs, client load scaled with the cluster), and (b) Lunule vs
// Dir-Hash vs Vanilla on the Web workload.
//
// Shapes reproduced: near-linear scaling of peak metadata throughput up to
// 16 MDSs (paper: >112k req/s at 16 MDSs); on Web, Lunule outperforms both
// Dir-Hash and Vanilla (paper: up to 22.2%).
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "common/table.h"

namespace lunule {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.35, /*ticks=*/900);
  sim::ShapeChecker checks;

  // (a) Scalability sweep on MDtest create.  MDtest clients are not
  // rate-limited application code: a single instance can saturate an MDS
  // by itself, so the offered per-client rate is set near the MDS
  // capacity (the paper's 16-MDS point delivers >112k req/s from its
  // client fleet).
  TablePrinter scaling({"MDSs", "clients", "peak IOPS", "per-MDS",
                        "linear-ideal", "efficiency"});
  std::vector<double> peaks;
  std::vector<double> sizes;
  double base_peak = 0.0;
  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
    sim::ScenarioConfig cfg =
        opts.config(sim::WorkloadKind::kMd, sim::BalancerKind::kLunule);
    cfg.n_mds = n;
    cfg.n_clients = 8 * n;  // grow offered load with the cluster
    cfg.client_rate = 1200.0;
    cfg.stop_when_done = false;
    const double peak = sim::run_scenario(cfg).metrics.peak_aggregate_iops();
    if (n == 1) base_peak = peak;
    const double ideal = base_peak * static_cast<double>(n);
    scaling.add_row(
        {TablePrinter::fmt(static_cast<std::uint64_t>(n)),
         TablePrinter::fmt(static_cast<std::uint64_t>(cfg.n_clients)),
         TablePrinter::fmt(peak, 0),
         TablePrinter::fmt(peak / static_cast<double>(n), 0),
         TablePrinter::fmt(ideal, 0),
         TablePrinter::fmt(100.0 * peak / ideal, 1) + "%"});
    peaks.push_back(peak);
    sizes.push_back(static_cast<double>(n));
  }
  if (opts.report.csv) {
    scaling.print_csv(std::cout);
  } else {
    scaling.print(std::cout,
                  "Figure 13(a): Lunule scalability, MDtest create");
  }
  // Linearity: R^2 of peak vs ideal-linear prediction.
  std::vector<double> predicted;
  for (const double n : sizes) predicted.push_back(base_peak * n);
  const double r2 = r_squared(peaks, predicted);
  std::cout << "R^2 against perfect linear scaling: " << r2 << "\n";
  checks.expect(r2 > 0.95, "13a: near-linear scaling to 16 MDSs");
  checks.expect(peaks.back() > 0.7 * base_peak * 16.0,
                "13a: 16-MDS efficiency at least 70% of linear");

  // (b) Web workload: Lunule vs Dir-Hash vs Vanilla.
  TablePrinter web({"Balancer", "sustained IOPS", "mean IF", "forwards"});
  double lunule_iops = 0.0;
  double hash_iops = 0.0;
  double vanilla_iops = 0.0;
  for (const sim::BalancerKind b :
       {sim::BalancerKind::kVanilla, sim::BalancerKind::kDirHash,
        sim::BalancerKind::kLunule}) {
    const sim::ScenarioResult r =
        sim::run_scenario(opts.config(sim::WorkloadKind::kWeb, b));
    const double sustained = r.sustained_iops();
    if (b == sim::BalancerKind::kLunule) lunule_iops = sustained;
    if (b == sim::BalancerKind::kDirHash) hash_iops = sustained;
    if (b == sim::BalancerKind::kVanilla) vanilla_iops = sustained;
    web.add_row({std::string(sim::balancer_name(b)),
                 TablePrinter::fmt(sustained, 0),
                 TablePrinter::fmt(r.metrics.mean_if(), 3),
                 TablePrinter::fmt(r.total_forwards)});
  }
  if (opts.report.csv) {
    web.print_csv(std::cout);
  } else {
    web.print(std::cout, "Figure 13(b): Web workload comparison");
  }
  checks.expect(lunule_iops > hash_iops,
                "13b: Lunule outperforms Dir-Hash on Web "
                "(paper: up to 22.2%)");
  checks.expect(lunule_iops >= vanilla_iops * 0.98,
                "13b: Lunule at least matches Vanilla on Web");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
