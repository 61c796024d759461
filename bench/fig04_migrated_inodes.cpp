// Figure 4: cumulative migrated inodes over time under the built-in
// balancer, for Filebench-Zipf (a) and CNN preprocessing (b).
//
// Shapes reproduced: on Zipf a large early migration wave is followed by
// further waves (the amounts are decided exporter-only and overshoot); on
// CNN inodes are migrated *continuously* even though the load never leaves
// the hot MDS — most migrated inodes are never visited again (invalid
// migrations by the heat-based selector).
#include <iostream>

#include "bench_common.h"

namespace lunule {
namespace {

/// Fraction of migrated inodes that were already fully visited at the end
/// of the run — a proxy for the paper's "vast majority of migrated inodes
/// are never visited after their migration" finding.
double dead_fraction(const sim::ScenarioResult& r) {
  // The migrated series is cumulative; compare against the total visits the
  // run produced on non-origin MDSs: if migration had been useful, served
  // work would have spread.  We use the simpler signal: how much of the
  // migrated volume happened after the midpoint while imbalance persisted.
  const std::vector<double> mig = r.metrics.migrated_inodes();
  if (mig.empty() || mig.back() == 0.0) return 0.0;
  const double mid = mig[mig.size() / 2];
  return (mig.back() - mid) / mig.back();
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.25, /*ticks=*/1500);
  sim::ShapeChecker checks;

  const sim::ScenarioResult zipf = sim::run_scenario(
      opts.config(sim::WorkloadKind::kZipf, sim::BalancerKind::kVanilla));
  const sim::ScenarioResult cnn = sim::run_scenario(
      opts.config(sim::WorkloadKind::kCnn, sim::BalancerKind::kVanilla));
  const sim::ScenarioResult cnn_lunule = sim::run_scenario(
      opts.config(sim::WorkloadKind::kCnn, sim::BalancerKind::kLunule));

  const std::vector<double> zipf_mig = zipf.metrics.migrated_inodes();
  const std::vector<double> cnn_mig = cnn.metrics.migrated_inodes();
  sim::print_series(std::cout, "Figure 4: cumulative migrated inodes, Vanilla",
                    {{"Zipf", zipf_mig}, {"CNN", cnn_mig}},
                    zipf.metrics.epoch_seconds(), /*digits=*/3, opts.report);

  std::cout << "Zipf: " << zipf.migrated_total << " inodes in "
            << zipf.migrations_completed << " migrations\n"
            << "CNN : " << cnn.migrated_total << " inodes in "
            << cnn.migrations_completed << " migrations\n"
            << "CNN migration validity (subtree used at its new home): "
            << "Vanilla " << cnn.valid_migration_fraction << " ("
            << cnn.wasted_migration_inodes << " inodes wasted), Lunule "
            << cnn_lunule.valid_migration_fraction << "\n";

  checks.expect(zipf.migrated_total > 0,
                "Zipf/Vanilla migrates a large inode volume");
  checks.expect(cnn.migrations_completed > zipf.migrations_completed,
                "CNN/Vanilla performs many more (small, invalid) "
                "migrations than Zipf");
  // Continuous migration on CNN: migration volume keeps growing in the
  // second half of the run even though the hot MDS never drains.
  checks.expect(dead_fraction(cnn) > 0.2,
                "CNN/Vanilla keeps migrating throughout the run "
                "(eager but invalid migration)");
  // The paper's root cause: "the vast majority of migrated inodes are
  // never visited after their migration" — and the fix: Lunule's selector
  // exports subtrees that WILL be used.
  checks.expect(cnn.valid_migration_fraction < 0.6,
                "CNN/Vanilla: a large share of migrations is invalid "
                "(paper: the vast majority never visited again)");
  checks.expect(cnn_lunule.valid_migration_fraction >
                    cnn.valid_migration_fraction,
                "CNN/Lunule: mIndex selection migrates subtrees that are "
                "actually used afterwards");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
