// Custom balancer example: writing a policy on the Mantle-like
// programmable framework.
//
// Mantle (SC '15) exposes *when* and *how much* to migrate as user hooks
// while keeping CephFS's heat-based subtree selection.  This example
// implements a "threshold spill" policy as two expression strings in the
// bundled policy language — migrate when the spread between the busiest
// and the idlest MDS exceeds a factor, shipping a quarter of each
// exporter's excess — and races it against GreedySpill and Lunule on the
// mixed workload.  It also demonstrates the paper's point: even a sensible
// Mantle policy is limited by the selection stage it cannot customize.
//
//   ./custom_balancer [--scale=X] [--ticks=N]
#include <iostream>

#include "balancer/policy_lang.h"
#include "common/flags.h"
#include "common/table.h"
#include "sim/scenario.h"

namespace {

std::unique_ptr<lunule::balancer::MantleBalancer> make_threshold_spill() {
  lunule::balancer::PolicyBalancerParams p;
  p.name = "threshold-spill";
  p.when = "max > 4 * max(min, 1)";
  p.howmuch = "(my - avg) / 4";
  return lunule::balancer::make_policy_balancer(p);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lunule;
  Flags flags(argc, argv);
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kMixed;
  cfg.scale = flags.get_double("scale", 0.1);
  cfg.max_ticks = flags.get_int("ticks", 4000);
  flags.check_unused();

  TablePrinter table(
      {"Balancer", "mean IF", "sustained IOPS", "completion (s)"});
  const auto add_row = [&table](const sim::ScenarioResult& r) {
    table.add_row({r.balancer, TablePrinter::fmt(r.metrics.mean_if(), 3),
                   TablePrinter::fmt(r.sustained_iops(), 0),
                   TablePrinter::fmt(static_cast<std::int64_t>(r.end_tick))});
  };

  for (const auto kind :
       {sim::BalancerKind::kGreedySpill, sim::BalancerKind::kLunule}) {
    cfg.balancer = kind;
    add_row(sim::run_scenario(cfg));
  }
  // The custom policy plugs into the scenario like any built-in balancer:
  // the simulation calls its on_epoch at every epoch close.
  auto sim = sim::make_scenario(cfg, make_threshold_spill());
  sim->run();
  add_row(sim::result_of(*sim));

  table.print(std::cout, "Custom Mantle policy vs built-in balancers "
                         "(mixed workload)");
  std::cout << "\nThe custom policy triggers sensibly, but — like every\n"
               "Mantle policy — it selects subtrees by heat and cannot\n"
               "express Lunule's workload-aware migration index.\n";
  return 0;
}
