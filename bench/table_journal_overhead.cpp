// Journal overhead table: steady-state cost of the metadata journal.
//
// CephFS's MDLog is on the critical path of every mutation, so the first
// question about any journal model is what it costs when nothing crashes.
// This bench drives the metadata-intensive MD workload (every request is a
// create, the journal's worst case) through the same Lunule scenario three
// times — journal off, journal on at the default cost model, and journal on
// with an aggressive (5x append cost) model — and compares delivered
// metadata throughput.
//
// With append_cost_ops = c, a saturated rank settles at C / (1 + c) served
// ops per tick (each served op owes c ops of journal debt to the next
// tick), so the defaults (c = 0.04) predict ~3.8% steady-state overhead;
// the shape checks pin it under 5% and require the aggressive model to cost
// visibly more, which keeps the cost model honest in both directions.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"

namespace lunule {
namespace {

struct Cell {
  std::string label;
  sim::ScenarioResult result;
};

int run(int argc, char** argv) {
  bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.25, /*ticks=*/600);
  sim::ShapeChecker checks;

  journal::JournalParams aggressive;
  aggressive.enabled = true;
  aggressive.append_cost_ops = 0.2;
  aggressive.segment_entries = 128;

  struct Variant {
    const char* label;
    bool enabled;
    journal::JournalParams params;
  };
  const Variant variants[] = {
      {"off", false, journal::JournalParams{}},
      {"defaults", true, journal::JournalParams{}},
      {"aggressive", true, aggressive},
  };

  std::vector<Cell> cells;
  for (const Variant& v : variants) {
    sim::ScenarioConfig cfg =
        opts.config(sim::WorkloadKind::kMd, sim::BalancerKind::kLunule);
    cfg.journal = v.params;
    cfg.journal.enabled = v.enabled;
    Cell cell;
    cell.label = v.label;
    cell.result = sim::run_scenario(cfg);
    opts.dump_trace(cell.result);
    cells.push_back(std::move(cell));
  }
  const double base_rate = cells[0].result.sustained_iops();
  const auto overhead_of = [&](const Cell& c) {
    return base_rate > 0.0 ? 1.0 - c.result.sustained_iops() / base_rate
                           : 0.0;
  };

  TablePrinter table({"journal", "served ops", "ops/s", "overhead",
                      "entries", "journal MB", "trimmed segs"});
  for (const Cell& c : cells) {
    table.add_row(
        {c.label, TablePrinter::fmt(c.result.total_served),
         TablePrinter::fmt(c.result.sustained_iops(), 0),
         TablePrinter::fmt(100.0 * overhead_of(c), 2) + "%",
         TablePrinter::fmt(c.result.journal.appends),
         TablePrinter::fmt(
             static_cast<double>(c.result.journal.bytes_written) / (1024.0 *
                                                                    1024.0),
             2),
         TablePrinter::fmt(c.result.journal.segments_trimmed)});
  }
  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Steady-state journal overhead (MD workload, Lunule, no "
                "faults)");
  }

  checks.expect(cells[0].result.journal.appends == 0 &&
                    cells[0].result.journal.bytes_written == 0,
                "with the journal off, no journal traffic exists at all");
  checks.expect(cells[1].result.journal.appends > 0 &&
                    cells[1].result.journal.bytes_written > 0,
                "with the journal on, every mutation pays journal traffic");
  checks.expect(cells[1].result.journal.segments_trimmed > 0,
                "checkpoints retire covered segments (bounded replay debt)");
  checks.expect(overhead_of(cells[1]) <= 0.05,
                "default journaling costs at most 5% of metadata "
                "throughput");
  checks.expect(overhead_of(cells[2]) > overhead_of(cells[1]),
                "a 5x append cost model costs visibly more (the cost knob "
                "is live)");
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
