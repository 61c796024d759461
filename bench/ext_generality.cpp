// Extension bench (paper §3.4, "Generality of Lunule"): the IF model
// applied to a hash-based metadata service.
//
// The paper argues its imbalance-factor model carries over to hash-based
// metadata management (IndexFS-style), while the subtree selector does not.
// This bench substantiates the claim on the Web workload:
//
//   Dir-Hash     — static hash placement, no re-balancing (the baseline of
//                  Fig. 13(b)/14);
//   Lunule-Hash  — the same placement plus IF-triggered re-pinning of the
//                  hottest shards (Algorithm 1 for roles/amounts, observed
//                  per-shard load instead of mIndex for selection);
//   Lunule       — full dynamic subtree partitioning.
//
// Expected shape: Lunule-Hash removes most of Dir-Hash's request skew
// (the IF model generalizes), while full Lunule keeps the locality
// advantage (fewest forwards) — exactly the trade-off §3.4 describes.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"

namespace lunule {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.35, /*ticks=*/900);
  sim::ShapeChecker checks;

  TablePrinter table({"Service", "mean IF", "sustained IOPS", "forwards",
                      "migrated inodes"});
  double hash_if = 0.0;
  double lunule_hash_if = 0.0;
  double hash_iops = 0.0;
  double lunule_hash_iops = 0.0;
  std::uint64_t lunule_forwards = 0;
  std::uint64_t lunule_hash_forwards = 0;

  for (const sim::BalancerKind b :
       {sim::BalancerKind::kDirHash, sim::BalancerKind::kLunuleHash,
        sim::BalancerKind::kLunule}) {
    const sim::ScenarioResult r =
        sim::run_scenario(opts.config(sim::WorkloadKind::kWeb, b));
    const double sustained = r.sustained_iops();
    const double mean_if = r.metrics.mean_if();
    table.add_row({std::string(sim::balancer_name(b)),
                   TablePrinter::fmt(mean_if, 3),
                   TablePrinter::fmt(sustained, 0),
                   TablePrinter::fmt(r.total_forwards),
                   TablePrinter::fmt(r.migrated_total)});
    switch (b) {
      case sim::BalancerKind::kDirHash:
        hash_if = mean_if;
        hash_iops = sustained;
        break;
      case sim::BalancerKind::kLunuleHash:
        lunule_hash_if = mean_if;
        lunule_hash_iops = sustained;
        lunule_hash_forwards = r.total_forwards;
        break;
      default:
        lunule_forwards = r.total_forwards;
        break;
    }
  }

  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Generality extension: IF model on a hash-based service "
                "(Web workload)");
  }

  checks.expect(lunule_hash_if < hash_if,
                "IF-driven re-pinning improves the static hash placement's "
                "balance (the IF model generalizes, paper §3.4)");
  checks.expect(lunule_hash_iops > hash_iops,
                "...and its sustained throughput");
  checks.expect(lunule_forwards < lunule_hash_forwards,
                "subtree partitioning keeps the locality advantage (fewer "
                "forwards than any hash placement)");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
