// Extension bench: the asynchronous metadata update path (sync vs async
// journal completion) under NLP and Zipf with journal-stall faults.
//
// In the synchronous journal mode every mutation's append and every group
// commit are charged to the rank's foreground IOPS budget, so journal cost
// rides directly on op latency; a stalled journal device backpressures
// creates as soon as the un-flushed backlog hits the cap.  The async mode
// (docs/JOURNAL.md) acknowledges mutations at in-memory apply and charges
// journal IOPS to a background durability lane, only throttling the
// foreground once the backlog crosses the high-water mark — the trade the
// AsyncFS direction makes: a bounded, documented crash-loss window in
// exchange for a flat latency tail.
//
// Journal costs here are deliberately heavier than the defaults (a slow
// journal device, ~0.5 foreground ops per append in sync mode) so the two
// completion modes separate visibly at bench scale; both sides of each
// workload run the identical schedule otherwise (same seed, same stalls).
//
// --json=PATH writes one machine-readable record per cell.  CI's sanitizer
// smoke runs this bench under LUNULE_VALIDATE=1, which turns on the epoch
// invariant checker — including section 9's async backlog / prefix-
// consistency / counter-agreement audits.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "sim/json_export.h"

namespace lunule {
namespace {

constexpr Tick kStallTick = 80;

struct Cell {
  std::string workload;
  bool async = false;
  sim::ScenarioResult r;
};

void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  sim::JsonWriter w(out);
  w.begin_object();
  w.field("bench", std::string_view("ext_async_journal"));
  w.key("cells");
  w.begin_array();
  for (const Cell& c : cells) {
    w.begin_object();
    w.field("workload", std::string_view(c.workload));
    w.field("mode", std::string_view(c.async ? "async" : "sync"));
    w.field("p50_s", c.r.op_latency.percentile(50));
    w.field("p99_s", c.r.op_latency.percentile(99));
    w.field("max_s", c.r.op_latency.max_value());
    w.field("stall_fraction", c.r.mean_stall_fraction);
    w.field("total_served", c.r.total_served);
    w.field("clients_done", static_cast<std::uint64_t>(c.r.clients_done));
    w.field("journal_entries_appended", c.r.journal.appends);
    w.field("async_acked", c.r.journal.async_acked);
    w.field("async_throttle_ticks", c.r.journal.async_throttle_ticks);
    w.field("acked_lost_entries", c.r.faults.acked_lost_entries);
    w.field("dependency_violations", c.r.faults.dependency_violations);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  std::cout << "results written to " << path << "\n";
}

int run(int argc, char** argv) {
  bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.2, /*ticks=*/2500,
                                 /*clients=*/60);
  sim::ShapeChecker checks;

  // MD (mdtest) is the create-every-op workload the async path targets:
  // every op appends, so sync mode pays the append debt on every serve.
  // It is open-ended, so it shows up as a throughput gap at equal window.
  // Zipf is closed (both modes complete the same op total), nearly
  // append-free, and feels the journal only through the group-commit
  // flush debt — that is where the equal-work p99 comparison lives.
  const sim::WorkloadKind workloads[] = {sim::WorkloadKind::kMd,
                                         sim::WorkloadKind::kZipf};

  std::vector<Cell> cells;
  for (const auto wk : workloads) {
    for (const bool async : {false, true}) {
      sim::ScenarioConfig cfg = opts.config(wk, sim::BalancerKind::kLunule);
      // Demand sits between the two modes' effective capacities: sync pays
      // journal debt (per-append cost plus one tick's worth of capacity
      // per group commit — a slow journal device) on the foreground lane,
      // async keeps the foreground clear, so only the sync side runs
      // capacity-bound and queues.  The per-client rate is kept low so
      // head-of-line blocking is a visible share of each client's op
      // stream — that is what moves the p99, latency being counted per op
      // from first attempt to serve.  Everything is derived from the
      // demand so the shapes hold at smoke sizes too.
      cfg.n_clients = opts.clients * 2;  // more clients, lower rate each
      cfg.client_rate = 12.0;
      const double demand_per_rank =
          cfg.client_rate * static_cast<double>(cfg.n_clients) /
          static_cast<double>(cfg.n_mds);
      cfg.mds_capacity_iops = demand_per_rank * 1.25;
      cfg.journal.enabled = true;
      cfg.journal.flush_interval_ticks = 3;  // trailing group commit
      cfg.journal.append_cost_ops = 0.5;     // slow journal device...
      cfg.journal.flush_cost_ops = cfg.mds_capacity_iops;  // ...per commit
      cfg.journal.max_unflushed_entries = 1200;
      cfg.journal.async_mode = async;
      // Above the ~3-tick steady-state backlog, below the refuse cap: the
      // throttle only bites when the device actually stalls.
      cfg.journal.async_high_water_entries = 1000;
      // The same device stall hits both modes mid-run: sync eats it as
      // foreground backpressure, async rides it out on the backlog until
      // the high-water mark throttles.
      const Tick stall_ticks = std::min<Tick>(60, opts.ticks / 6);
      cfg.faults.journal_stall(/*m=*/0, kStallTick, stall_ticks);
      cfg.faults.journal_stall(/*m=*/1, kStallTick + stall_ticks / 2,
                               stall_ticks);
      const sim::ScenarioResult r = sim::run_scenario(cfg);
      opts.dump_trace(r);
      cells.push_back({std::string(sim::workload_name(wk)), async, r});
    }
  }

  TablePrinter table({"Workload", "mode", "p50 (s)", "p99 (s)", "max (s)",
                      "stall fraction", "served", "acked", "throttled"});
  for (const Cell& c : cells) {
    table.add_row({c.workload, c.async ? "async" : "sync",
                   TablePrinter::fmt(c.r.op_latency.percentile(50), 1),
                   TablePrinter::fmt(c.r.op_latency.percentile(99), 1),
                   TablePrinter::fmt(c.r.op_latency.max_value(), 0),
                   TablePrinter::fmt(c.r.mean_stall_fraction, 3),
                   TablePrinter::fmt(c.r.total_served),
                   TablePrinter::fmt(c.r.journal.async_acked),
                   TablePrinter::fmt(c.r.journal.async_throttle_ticks)});
  }
  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Async metadata update path: per-op latency sync vs async "
                "journal completion (journal device stalls mid-run)");
  }
  if (!opts.json_path.empty()) write_json(opts.json_path, cells);

  // Cell layout: [MD sync, MD async, Zipf sync, Zipf async].
  bool tail_gate_armed = false;
  bool tail_improved_somewhere = false;
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const sim::ScenarioResult& sync = cells[i].r;
    const sim::ScenarioResult& async = cells[i + 1].r;
    checks.expect(sync.total_served > 0 && async.total_served > 0,
                  cells[i].workload + ": both modes serve the workload");
    checks.expect(sync.journal.appends > 0 &&
                      async.journal.appends > 0,
                  cells[i].workload + ": both modes journal mutations");
    checks.expect(sync.journal.async_acked == 0 &&
                      sync.journal.async_throttle_ticks == 0,
                  cells[i].workload +
                      ": sync mode reports no async activity");
    checks.expect(async.journal.async_acked ==
                      async.journal.appends,
                  cells[i].workload +
                      ": async mode acknowledges every append at apply");
    checks.expect(async.faults.dependency_violations == 0,
                  cells[i].workload +
                      ": async replay audit finds no dependency violations");
    checks.expect(async.faults.acked_lost_entries == 0,
                  cells[i].workload +
                      ": no crash in the plan, so nothing acked is lost");
    // The headline claim: at equal completed work, decoupling completion
    // from durability strictly flattens the latency tail on at least one
    // workload (both must finish, so served totals are conserved).
    const bool both_done = sync.clients_done == sync.n_clients &&
                           async.clients_done == async.n_clients;
    if (both_done && async.total_served == sync.total_served) {
      tail_gate_armed = true;  // an equal-completed-work pair exists
      if (async.op_latency.percentile(99) < sync.op_latency.percentile(99)) {
        tail_improved_somewhere = true;
      }
    }
    checks.expect(async.mean_stall_fraction <=
                      sync.mean_stall_fraction * 1.05 + 1e-9,
                  cells[i].workload +
                      ": async clients stall no more than sync clients");
  }
  // The headline gate needs an equal-completed-work pair to compare; smoke
  // sizes (CI sanitizer runs with tiny --ticks) cannot finish a closed
  // workload, so there the rows are informational and the gate is not
  // checked: a run too short to compare can neither pass nor fail it.
  if (tail_gate_armed) {
    checks.expect(tail_improved_somewhere,
                  "async p99 strictly beats sync at equal completed ops on "
                  "at least one workload");
  }
  // MD never completes (open-ended creates), so it speaks through
  // throughput instead: with every op paying append debt, moving the
  // journal off the foreground must serve strictly more creates in the
  // same window.
  checks.expect(cells[1].r.total_served > cells[0].r.total_served,
                "MD: async mode serves strictly more creates than sync in "
                "the same window");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
