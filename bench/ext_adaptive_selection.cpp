// Extension bench: the dynamic subtree-selection strategy (the paper's
// stated future work, Section 4.1).
//
// Lunule-Adaptive closes the loop between the migration-validity audit and
// the selector's per-decision budget: invalid migrations shrink the
// budget, trustworthy ones grow it.  On CNN (where stale signals are the
// danger) the adaptive variant must at least preserve Lunule's balance and
// keep its migration validity no worse; on Zipf (steady signals) it must
// not regress either.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/adaptive_lunule.h"

namespace lunule {
namespace {

struct Cell {
  sim::ScenarioResult result;
  std::size_t final_budget = 0;
};

Cell run_adaptive(const bench::BenchOptions& opts, sim::WorkloadKind w) {
  sim::ScenarioConfig cfg = opts.config(w, sim::BalancerKind::kLunule);
  core::AdaptiveParams p;
  p.base = core::LunuleParams::for_cluster(sim::cluster_params_for(cfg));
  auto balancer = std::make_unique<core::AdaptiveLunuleBalancer>(p);
  const auto* handle = balancer.get();
  auto sim = sim::make_scenario(cfg, std::move(balancer));
  sim->run();
  return Cell{.result = sim::result_of(*sim),
              .final_budget = handle->current_max_subtrees()};
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.2, /*ticks=*/1500);
  sim::ShapeChecker checks;

  TablePrinter table({"Workload", "Balancer", "mean IF", "sustained IOPS",
                      "valid migrations", "final budget"});
  for (const sim::WorkloadKind w :
       {sim::WorkloadKind::kCnn, sim::WorkloadKind::kZipf}) {
    const sim::ScenarioResult fixed =
        sim::run_scenario(opts.config(w, sim::BalancerKind::kLunule));
    const Cell adaptive = run_adaptive(opts, w);

    const double fixed_if = fixed.metrics.mean_if();
    const double adaptive_if = adaptive.result.metrics.mean_if();
    table.add_row({fixed.workload, fixed.balancer,
                   TablePrinter::fmt(fixed_if, 3),
                   TablePrinter::fmt(fixed.sustained_iops(), 0),
                   TablePrinter::fmt(fixed.valid_migration_fraction, 2),
                   "-"});
    table.add_row({adaptive.result.workload, adaptive.result.balancer,
                   TablePrinter::fmt(adaptive_if, 3),
                   TablePrinter::fmt(adaptive.result.sustained_iops(), 0),
                   TablePrinter::fmt(
                       adaptive.result.valid_migration_fraction, 2),
                   TablePrinter::fmt(
                       static_cast<std::uint64_t>(adaptive.final_budget))});

    checks.expect(
        adaptive_if < fixed_if * 1.25,
        adaptive.result.workload +
            ": adaptive selection does not regress balance materially");
    checks.expect(adaptive.result.valid_migration_fraction >=
                      fixed.valid_migration_fraction * 0.9,
                  adaptive.result.workload +
                      ": adaptive selection keeps migration validity");
  }

  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Dynamic subtree selection (the paper's future work)");
  }
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
