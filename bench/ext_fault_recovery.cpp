// Extension bench: metadata load re-convergence after an MDS crash.
//
// Lunule's Imbalance Factor is defined over the alive cluster, so a crash
// is just a very large, very sudden imbalance: the failed rank's subtrees
// pile onto the survivors and the balancer must redistribute them.  This
// bench crashes one MDS mid-run (with recovery two minutes later) under the
// Zipf workload and compares how quickly each policy drives the observed IF
// back under Lunule's trigger threshold:
//
//   Lunule         — IF-triggered, workload-aware selection: re-converges
//                    fastest, but the take-over is amnesiac (the survivors
//                    inherit subtrees with no load record);
//   Lunule+journal — same policy with the metadata journal on: take-over is
//                    replay-based (costs modeled replay time, loses the
//                    un-flushed tail) but the primary adopter inherits the
//                    crashed rank's decayed load history, so the forecast
//                    does not restart from zero;
//   Vanilla        — relative trigger + heat selection: slower, may
//                    over-migrate;
//   Dir-Hash       — static placement, nothing re-balances after the
//                    take-over.
//
// The re-convergence time (seconds from the crash until IF first drops
// below the threshold; "never" if it does not within the run) is the
// recovery-oriented analogue of the paper's Fig. 6 balance comparison.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"

namespace lunule {
namespace {

constexpr Tick kCrashTick = 60;
constexpr Tick kDownTicks = 120;

std::string fmt_reconverge(double seconds) {
  if (seconds < 0.0) return "never";
  return TablePrinter::fmt(seconds, 0) + " s";
}

int run(int argc, char** argv) {
  bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.3, /*ticks=*/900,
                                 /*clients=*/60);
  sim::ShapeChecker checks;

  TablePrinter table({"Balancer", "reconverge", "takeovers",
                      "aborted migrations", "replay", "lost entries",
                      "mean IF", "served ops"});
  double lunule_rec = -1.0;
  double journal_rec = -1.0;
  double journal_replay = 0.0;
  double vanilla_rec = -1.0;
  double hash_rec = -1.0;

  struct Row {
    sim::BalancerKind balancer;
    bool journaled;
    const char* label;
  };
  const Row rows[] = {
      {sim::BalancerKind::kLunule, false, "Lunule"},
      {sim::BalancerKind::kLunule, true, "Lunule+journal"},
      {sim::BalancerKind::kVanilla, false, "Vanilla"},
      {sim::BalancerKind::kDirHash, false, "Dir-Hash"},
  };
  for (const Row& row : rows) {
    sim::ScenarioConfig cfg = opts.config(sim::WorkloadKind::kZipf,
                                          row.balancer);
    // Crash rank 1 while the client wave is hot; it rejoins (empty-handed,
    // like a standby taking over the rank) two simulated minutes later.
    cfg.faults.crash(/*m=*/1, kCrashTick, kDownTicks);
    cfg.journal.enabled = row.journaled;
    const sim::ScenarioResult r = sim::run_scenario(cfg);
    opts.dump_trace(r);
    const double reconverge = r.reconverge_seconds();
    table.add_row({row.label,
                   fmt_reconverge(reconverge),
                   TablePrinter::fmt(r.faults.subtrees),
                   TablePrinter::fmt(r.faults.aborted_migrations),
                   TablePrinter::fmt(r.faults.replay_seconds, 2) + " s",
                   TablePrinter::fmt(r.faults.lost_entries),
                   TablePrinter::fmt(r.metrics.mean_if(), 3),
                   TablePrinter::fmt(r.total_served)});
    if (row.journaled) {
      journal_rec = reconverge;
      journal_replay = r.faults.replay_seconds;
    } else {
      switch (row.balancer) {
        case sim::BalancerKind::kLunule:  lunule_rec = reconverge; break;
        case sim::BalancerKind::kVanilla: vanilla_rec = reconverge; break;
        default:                          hash_rec = reconverge; break;
      }
    }
  }

  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Fault recovery: IF re-convergence after an MDS crash "
                "(Zipf workload, crash at t=60 s, recovery at t=180 s)");
  }

  // -1 means "never within the run": treat it as +infinity when comparing.
  const auto as_time = [](double rec) {
    return rec < 0.0 ? 1e18 : rec;
  };
  checks.expect(lunule_rec >= 0.0,
                "Lunule re-converges within the run after the crash");
  checks.expect(as_time(lunule_rec) <= as_time(vanilla_rec),
                "...and no slower than the vanilla balancer");
  checks.expect(as_time(lunule_rec) <= as_time(hash_rec),
                "...and no slower than static hash placement (which cannot "
                "re-balance at all)");
  checks.expect(journal_replay > 0.0,
                "the journaled take-over pays a nonzero replay time");
  checks.expect(as_time(journal_rec) <= as_time(lunule_rec),
                "...and the replayed load history re-converges no slower "
                "than the amnesiac take-over");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
