// Ablation bench: the urgency term of the Imbalance Factor (Eq. 2-3).
//
// Scenario: a lightly-loaded cluster (few low-rate Zipf clients, all of
// whose directories start on one MDS).  The relative load dispersion is
// maximal (one-hot), but every MDS is far below capacity, so re-balancing
// buys nothing and only costs migration traffic — the paper's "benign
// imbalance" (Fig. 12b phase 1).
//
//   with-urgency    — Lunule as shipped: IF = CoV/sqrt(n) * U stays below
//                     the trigger threshold, zero migrations
//   without-urgency — the trigger uses the normalized CoV alone (as a
//                     CoV-only model would): migrations fire immediately
//
// A second, saturated scenario checks the control direction: with real
// pressure both variants act, so urgency only suppresses *benign* cases.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/lunule_balancer.h"

namespace lunule {
namespace {

sim::ScenarioResult run_case(const bench::BenchOptions& opts,
                             double client_rate, bool with_urgency) {
  sim::ScenarioConfig cfg =
      opts.config(sim::WorkloadKind::kZipf, sim::BalancerKind::kLunule);
  cfg.n_clients = 10;
  cfg.client_rate = client_rate;
  cfg.stop_when_done = false;
  core::LunuleParams p =
      core::LunuleParams::for_cluster(sim::cluster_params_for(cfg));
  if (!with_urgency) {
    // Degenerate capacity: u = l_max / C becomes huge, so U ~ 1 for any
    // non-zero load and the trigger reduces to the normalized CoV — the
    // "linear model" behaviour the paper abandons.
    p.if_params.mds_capacity = 1e-6;
  }
  auto sim =
      sim::make_scenario(cfg, std::make_unique<core::LunuleBalancer>(p));
  sim->run();
  return sim::result_of(*sim);
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.1, /*ticks=*/600);
  sim::ShapeChecker checks;

  // Benign: 10 clients at 40 ops/s = 400 IOPS on a 2500-IOPS MDS.
  const sim::ScenarioResult benign_with =
      run_case(opts, 40.0, /*with_urgency=*/true);
  const sim::ScenarioResult benign_without = run_case(opts, 40.0, false);
  // Harmful: the same 10 clients at full tilt saturate the hot MDS.
  const sim::ScenarioResult hot_with = run_case(opts, 400.0, true);
  const sim::ScenarioResult hot_without = run_case(opts, 400.0, false);

  TablePrinter table({"scenario", "variant", "migrated inodes", "mean IF"});
  const auto add_row = [&table](const char* scenario, const char* variant,
                                const sim::ScenarioResult& r) {
    table.add_row({scenario, variant, TablePrinter::fmt(r.migrated_total),
                   TablePrinter::fmt(r.metrics.mean_if(), 3)});
  };
  add_row("benign (16% load)", "with urgency", benign_with);
  add_row("benign (16% load)", "without urgency", benign_without);
  add_row("harmful (saturated)", "with urgency", hot_with);
  add_row("harmful (saturated)", "without urgency", hot_without);
  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Urgency-term ablation (Eq. 2)");
  }

  checks.expect(benign_with.migrated_total == 0,
                "urgency suppresses re-balance under benign imbalance");
  checks.expect(benign_without.migrated_total > 0,
                "a CoV-only trigger migrates even when no MDS is stressed");
  checks.expect(hot_with.migrated_total > 0,
                "urgency does not suppress genuinely harmful imbalance");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
