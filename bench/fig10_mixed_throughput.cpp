// Figure 10: per-MDS throughput over time under the mixed workload,
// Vanilla (a) vs Lunule (b).
//
// Shapes reproduced: Vanilla's per-MDS loads are highly skewed with
// ping-pong handoffs; Lunule's are tightly grouped, and the early-run
// aggregate throughput is substantially higher (paper: 1.6x during the
// first phase).
#include <iostream>

#include "bench_common.h"

namespace lunule {
namespace {

/// Mean over the first `frac` of a series.
double head_mean(const std::vector<double>& s, double frac) {
  const auto take = static_cast<std::size_t>(
      static_cast<double>(s.size()) * frac);
  if (take == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < take; ++i) acc += s[i];
  return acc / static_cast<double>(take);
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.2, /*ticks=*/9000);
  sim::ShapeChecker checks;

  const sim::ScenarioResult vanilla = sim::run_scenario(
      opts.config(sim::WorkloadKind::kMixed, sim::BalancerKind::kVanilla));
  const sim::ScenarioResult lunule = sim::run_scenario(
      opts.config(sim::WorkloadKind::kMixed, sim::BalancerKind::kLunule));

  sim::print_per_mds_iops(std::cout,
                          "Figure 10(a): per-MDS IOPS, mixed, Vanilla",
                          vanilla.metrics, opts.report);
  sim::print_per_mds_iops(std::cout,
                          "Figure 10(b): per-MDS IOPS, mixed, Lunule",
                          lunule.metrics, opts.report);

  // Early-run clustered throughput comparison (paper: 48k vs 30k IOPS in
  // the first 50 minutes).
  const double v_head = head_mean(vanilla.metrics.aggregate_iops(), 0.3);
  const double l_head = head_mean(lunule.metrics.aggregate_iops(), 0.3);
  std::cout << "Early-run aggregate IOPS: Vanilla " << v_head << ", Lunule "
            << l_head << " (" << l_head / v_head << "x)\n";
  // The paper reports 1.6x during the first 50 minutes; our closed-loop
  // simulator reproduces the direction with a smaller margin because its
  // Zipf/Web client groups saturate their balanced shares earlier (see
  // EXPERIMENTS.md).
  checks.expect(l_head > 1.03 * v_head,
                "Mixed: Lunule's early-run aggregate throughput ahead "
                "(paper: 1.6x)");
  checks.expect(lunule.total_served == vanilla.total_served,
                "Mixed: both systems eventually serve the same fixed job "
                "volume (sanity)");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
