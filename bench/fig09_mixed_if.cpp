// Figure 9: imbalance factor over time under the mixed workload (four
// client groups: CNN, NLP, Web, Zipf), Vanilla vs Lunule.
//
// Shapes reproduced: Vanilla's IF fluctuates with large spikes as client
// groups complete at different times; Lunule keeps IF near zero throughout,
// and its run ends earlier (the workloads finish faster when balanced).
#include <iostream>

#include "bench_common.h"
#include "common/stats.h"

namespace lunule {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.2, /*ticks=*/9000);
  sim::ShapeChecker checks;

  const sim::ScenarioResult vanilla = sim::run_scenario(
      opts.config(sim::WorkloadKind::kMixed, sim::BalancerKind::kVanilla));
  const sim::ScenarioResult lunule = sim::run_scenario(
      opts.config(sim::WorkloadKind::kMixed, sim::BalancerKind::kLunule));

  const std::vector<double> vanilla_if = vanilla.metrics.if_values();
  const std::vector<double> lunule_if = lunule.metrics.if_values();
  const double vanilla_mean = vanilla.metrics.mean_if();
  const double lunule_mean = lunule.metrics.mean_if();
  sim::print_series(std::cout, "Figure 9: IF over time, mixed workload",
                    {{"Vanilla", vanilla_if}, {"Lunule", lunule_if}},
                    vanilla.metrics.epoch_seconds(), /*digits=*/3,
                    opts.report);
  std::cout << "Vanilla: mean IF " << vanilla_mean << ", run "
            << vanilla.end_tick << " s\n"
            << "Lunule : mean IF " << lunule_mean << ", run "
            << lunule.end_tick << " s\n";

  checks.expect(lunule_mean < vanilla_mean,
                "Mixed: Lunule mean IF below Vanilla");
  checks.expect(lunule_mean < 0.35,
                "Mixed: Lunule keeps the cluster near balance");
  checks.expect(lunule.end_tick <= vanilla.end_tick,
                "Mixed: Lunule's curve is shorter (workloads finish "
                "no later than under Vanilla)");
  // Compare spikes after the initial one-hot transient (both systems
  // start with the whole namespace on MDS-1, so epoch 0 is ~1 for both).
  const std::size_t skip = std::min<std::size_t>(
      10, std::min(vanilla_if.size(), lunule_if.size()) / 2);
  const double vanilla_spike =
      max_value(std::span<const double>(vanilla_if).subspan(skip));
  const double lunule_spike =
      max_value(std::span<const double>(lunule_if).subspan(skip));
  checks.expect(vanilla_spike > 1.5 * lunule_spike,
                "Mixed: Vanilla shows much larger IF spikes after warm-up");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
