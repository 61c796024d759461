// Substrate study: hot-dirfrag read replication vs migration-based
// balancing.
//
// CephFS's other answer to read hotspots — besides migrating subtrees — is
// replicating hot dirfrags to peers (mds_bal_replicate_threshold), so reads
// spread without any authority change.  The paper evaluates balancers with
// replication at its (rarely-triggering) defaults; this bench explores the
// interaction on the Web workload, whose hottest section can exceed a
// single MDS's capacity:
//
//   Vanilla                 — migration only
//   Vanilla + replication   — CephFS's full production toolbox
//   Lunule                  — migration + dirfrag splitting
//   Lunule + replication    — both mechanisms together
//
// Expected shape: replication lifts the hot-fragment ceiling for both
// balancers (a single fragment's reads are no longer bounded by one MDS),
// and the combination is at least as good as either mechanism alone.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "sim/parallel_runner.h"

namespace lunule {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.35, /*ticks=*/900);
  sim::ShapeChecker checks;

  struct Variant {
    const char* label;
    sim::BalancerKind balancer;
    double replicate_iops;
  };
  const Variant variants[] = {
      {"Vanilla", sim::BalancerKind::kVanilla, 0.0},
      {"Vanilla + replication", sim::BalancerKind::kVanilla, 400.0},
      {"Lunule", sim::BalancerKind::kLunule, 0.0},
      {"Lunule + replication", sim::BalancerKind::kLunule, 400.0},
  };

  std::vector<sim::ScenarioConfig> configs;
  for (const Variant& v : variants) {
    sim::ScenarioConfig cfg =
        opts.config(sim::WorkloadKind::kWeb, v.balancer);
    cfg.replicate_threshold_iops = v.replicate_iops;
    configs.push_back(cfg);
  }
  const auto results = sim::run_scenarios(configs);

  TablePrinter table({"Variant", "mean IF", "sustained IOPS",
                      "migrated inodes", "completion (s)"});
  double sustained[4];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::ScenarioResult& r = results[i];
    sustained[i] = r.sustained_iops();
    table.add_row({variants[i].label,
                   TablePrinter::fmt(r.metrics.mean_if(), 3),
                   TablePrinter::fmt(sustained[i], 0),
                   TablePrinter::fmt(r.migrated_total),
                   TablePrinter::fmt(static_cast<std::int64_t>(r.end_tick))});
  }
  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Read replication vs migration on the Web workload");
  }

  checks.expect(sustained[1] > sustained[0],
                "replication lifts Vanilla's hot-fragment ceiling");
  checks.expect(sustained[3] >= sustained[2] * 0.98,
                "replication does not hurt Lunule");
  checks.expect(results[1].migrated_total <= results[0].migrated_total,
                "replication substitutes for some migration volume");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
