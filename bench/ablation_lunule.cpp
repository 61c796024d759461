// Ablation bench: each of Lunule's design choices is switched off in turn
// and the damage is measured, substantiating the design rationale of
// DESIGN.md §4b and of the paper's Section 3.
//
//   full          — Lunule as shipped
//   no-urgency    — IF reduces to normalized CoV (U forced to ~1 by a huge
//                   smoothness midpoint shift is not expressible, so we set
//                   the trigger on the raw CoV via capacity -> 0+): the
//                   balancer churns at light load
//   no-lag        — the migration-pipeline budget is lifted (in-flight
//                   backlog ignored): over-commitment / ping-pong
//   no-sibling    — the Pattern Analyzer's sibling-correlation credits are
//                   disabled: cold future subtrees become invisible and
//                   scan workloads balance worse
//   heat-select   — Lunule-Light (IF model + CephFS heat selection), the
//                   paper's own ablation
//
// Workloads: CNN (spatial) and Zipf (temporal) — the two regimes the
// components specialize in.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/lunule_balancer.h"

namespace lunule {
namespace {

struct Variant {
  const char* name;
  /// Mutates the Lunule parameters (and/or the scenario) for the ablation.
  void (*tweak)(core::LunuleParams&, sim::ScenarioConfig&);
};

sim::ScenarioResult run_variant(const bench::BenchOptions& opts,
                                sim::WorkloadKind workload,
                                const Variant& variant) {
  sim::ScenarioConfig cfg = opts.config(workload, sim::BalancerKind::kLunule);
  core::LunuleParams p =
      core::LunuleParams::for_cluster(sim::cluster_params_for(cfg));
  variant.tweak(p, cfg);
  auto sim =
      sim::make_scenario(cfg, std::make_unique<core::LunuleBalancer>(p));
  sim->run();
  return sim::result_of(*sim);
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.2, /*ticks=*/1500);
  sim::ShapeChecker checks;

  const Variant variants[] = {
      {"full", [](core::LunuleParams&, sim::ScenarioConfig&) {}},
      {"no-lag-awareness",
       [](core::LunuleParams& p, sim::ScenarioConfig&) {
         // Ignore the in-flight backlog entirely and let every epoch
         // re-commit a full pipeline (the vanilla balancer's mistake).
         p.min_pipeline_fraction = 0.0;
         p.selector.inode_cap = 1u << 30;
       }},
      {"no-sibling-credits",
       [](core::LunuleParams&, sim::ScenarioConfig& cfg) {
         // Disable the spatial-locality correlation signal at the source.
         cfg.sibling_credit_prob = 0.0;
       }},
      {"heat-selection (Lunule-Light)",
       [](core::LunuleParams& p, sim::ScenarioConfig&) {
         p.selection = core::SelectionRule::kHeatShare;
       }},
  };

  TablePrinter table({"Workload", "Variant", "mean IF", "sustained IOPS",
                      "migrated inodes"});
  double cnn_full_if = 0.0;
  double cnn_nosib_if = 0.0;
  double zipf_full_mig = 0.0;
  double zipf_nolag_mig = 0.0;
  double zipf_full_if = 0.0;
  double zipf_nolag_if = 0.0;

  for (const sim::WorkloadKind w :
       {sim::WorkloadKind::kCnn, sim::WorkloadKind::kZipf}) {
    for (const Variant& v : variants) {
      const sim::ScenarioResult r = run_variant(opts, w, v);
      const double mean_if = r.metrics.mean_if();
      table.add_row({r.workload, v.name, TablePrinter::fmt(mean_if, 3),
                     TablePrinter::fmt(r.sustained_iops(), 0),
                     TablePrinter::fmt(r.migrated_total)});
      if (w == sim::WorkloadKind::kCnn) {
        if (std::string(v.name) == "full") cnn_full_if = mean_if;
        if (std::string(v.name) == "no-sibling-credits") {
          cnn_nosib_if = mean_if;
        }
      } else {
        if (std::string(v.name) == "full") {
          zipf_full_mig = static_cast<double>(r.migrated_total);
          zipf_full_if = mean_if;
        }
        if (std::string(v.name) == "no-lag-awareness") {
          zipf_nolag_mig = static_cast<double>(r.migrated_total);
          zipf_nolag_if = mean_if;
        }
      }
    }
  }

  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Lunule component ablation");
  }

  checks.expect(cnn_full_if < cnn_nosib_if,
                "CNN: sibling-correlation credits improve scan balance "
                "(without them, cold future subtrees are invisible)");
  checks.expect(zipf_nolag_mig > 1.2 * zipf_full_mig ||
                    zipf_nolag_if > zipf_full_if,
                "Zipf: dropping lag awareness causes over-migration or "
                "worse balance");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
