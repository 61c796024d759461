// Fault-drill example: a scripted failure exercise against a Lunule
// cluster, the way an operator would rehearse an MDS outage.
//
// A 4-MDS cluster serves a steady Zipf workload with the metadata journal
// on, while a FaultPlan injects, in order: a slow node (half capacity for a
// minute), a journal stall on rank 1 (flushes blocked, the un-flushed
// backlog grows), a crash of the same rank mid-stall (the take-over replays
// the durable journal prefix; the stalled backlog is lost), and one forced
// abort of every in-flight migration.  The report shows the per-MDS load
// dip and the recovery + replay metrics.
//
//   ./fault_drill [--ticks=N] [--seed=N]
#include <iostream>
#include <vector>

#include "common/flags.h"
#include "sim/report.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace lunule;
  Flags flags(argc, argv);
  const Tick ticks = flags.get_int("ticks", 600);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  flags.check_unused();

  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_mds = 4;
  cfg.n_clients = 40;
  cfg.scale = 0.5;  // enough work to keep clients active through the drill
  cfg.max_ticks = ticks;
  cfg.stop_when_done = false;  // hold the window open for the whole drill
  cfg.seed = seed;
  // Journal on: take-overs replay the durable journal instead of adopting
  // the crashed rank's subtrees amnesically.
  cfg.journal.enabled = true;

  // The drill schedule, scaled to the window so shorter --ticks still run
  // every phase.
  const Tick slow_at = ticks / 6;
  const Tick crash_at = ticks / 3;
  const Tick crash_down = ticks / 4;
  const Tick stall_at = crash_at > 30 ? crash_at - 30 : 1;
  cfg.faults.slow(/*m=*/3, slow_at, /*for_ticks=*/60, /*factor=*/0.5)
      .journal_stall(/*m=*/1, stall_at, /*for_ticks=*/crash_at - stall_at + 10)
      .crash(/*m=*/1, crash_at, crash_down)
      .abort_migrations(crash_at + crash_down / 2);

  std::cout << "Fault drill: slow MDS-3 at t=" << slow_at
            << "s, stall MDS-1's journal at t=" << stall_at
            << "s, crash MDS-1 at t=" << crash_at << "s (back at t="
            << crash_at + crash_down
            << "s), forced migration abort in between\n\n";

  const sim::ScenarioResult r = sim::run_scenario(cfg);

  sim::ReportOptions ropts;
  ropts.buckets = 12;
  sim::print_per_mds_iops(std::cout, "per-MDS IOPS through the drill",
                          r.metrics, ropts);
  const std::vector<double> ifs = r.metrics.if_values();
  sim::print_series(std::cout, "imbalance factor (alive ranks)",
                    {{"IF", ifs}}, r.metrics.epoch_seconds(), /*digits=*/3,
                    ropts);
  const double reconverge = r.reconverge_seconds();

  std::cout << "\nfaults injected:      " << r.faults.applied
            << " (skipped: " << r.faults.skipped << ")\n"
            << "subtrees taken over:  " << r.faults.subtrees << "\n"
            << "migrations aborted:   " << r.faults.aborted_migrations
            << " by faults\n"
            << "re-convergence:       "
            << (reconverge < 0.0
                    ? std::string("not within the window")
                    : std::to_string(static_cast<long long>(reconverge)) +
                          " s after the crash")
            << "\n"
            << "journal appends:      " << r.journal.appends << " ("
            << r.journal.bytes_written / (1024 * 1024) << " MB, "
            << r.journal.segments_trimmed << " segments trimmed)\n"
            << "replay at take-over:  " << r.faults.replayed_entries
            << " entries in " << r.faults.replay_seconds << " s, "
            << r.faults.lost_entries << " un-flushed entries lost, "
            << r.faults.journaled_subtrees << " subtrees reconstructed\n"
            << "ops served:           " << r.total_served << "\n";
  return 0;
}
