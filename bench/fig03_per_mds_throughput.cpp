// Figure 3: per-MDS metadata throughput over time under the built-in
// balancer, for Filebench-Zipf (a) and CNN preprocessing (b).
//
// Shapes reproduced: on Zipf the load sloshes between MDSs over time
// (ping-pong); on CNN the load essentially never leaves one MDS — only a
// single server is actively working at any moment.
#include <iostream>

#include "bench_common.h"
#include "common/stats.h"

namespace lunule {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.25, /*ticks=*/1500);
  sim::ShapeChecker checks;

  // (a) Filebench-Zipf.
  {
    const sim::ScenarioResult r = sim::run_scenario(
        opts.config(sim::WorkloadKind::kZipf, sim::BalancerKind::kVanilla));
    sim::print_per_mds_iops(std::cout,
                            "Figure 3(a): per-MDS IOPS, Zipf, Vanilla",
                            r.metrics, opts.report);
    // Ping-pong signal: some MDS both exceeds 60% of the cluster-mean peak
    // and later drops below 25% of its own peak while the run is still hot.
    bool ping_pong = false;
    for (std::size_t m = 0; m < r.metrics.ranks(); ++m) {
      const std::vector<double> series = r.metrics.rank_iops(m);
      const double peak = max_value(series);
      if (peak < 100.0) continue;
      // Scan the middle half of the run for a deep valley after the peak.
      std::size_t peak_at = 0;
      for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i] == peak) peak_at = i;
      }
      for (std::size_t i = peak_at + 1; i + series.size() / 4 < series.size();
           ++i) {
        if (series[i] < 0.25 * peak) {
          ping_pong = true;
          break;
        }
      }
    }
    checks.expect(ping_pong,
                  "Zipf/Vanilla: at least one MDS's load collapses after "
                  "peaking (ping-pong effect)");
  }

  // (b) CNN preprocessing.
  {
    const sim::ScenarioResult r = sim::run_scenario(
        opts.config(sim::WorkloadKind::kCnn, sim::BalancerKind::kVanilla));
    sim::print_per_mds_iops(std::cout,
                            "Figure 3(b): per-MDS IOPS, CNN, Vanilla",
                            r.metrics, opts.report);
    // Hot-MDS dominance: the busiest MDS carries most of the cluster's
    // work over the whole run.
    std::uint64_t total = 0;
    std::uint64_t hi = 0;
    for (const std::uint64_t s : r.total_served_per_mds) {
      total += s;
      hi = std::max(hi, s);
    }
    checks.expect(static_cast<double>(hi) / static_cast<double>(total) >=
                      0.3,
                  "CNN/Vanilla: one MDS stays saturated far beyond its "
                  "fair 20% share for the whole run");
  }
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
