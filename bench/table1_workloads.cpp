// Table 1: workload characteristics.
//
// Regenerates the paper's workload description table from the actual
// generators: namespace shape (directories, files), the fraction of file
// system operations that are metadata operations, and the access pattern
// class each workload exhibits (measured as the recurrent-visit fraction
// of its op stream).
#include <iostream>

#include "bench_common.h"
#include "common/table.h"

namespace lunule {
namespace {

struct Row {
  sim::WorkloadKind kind;
  double paper_meta_ratio;
  const char* scenario;
};

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.1, /*ticks=*/600,
                                 /*clients=*/8);
  const Row rows[] = {
      {sim::WorkloadKind::kCnn, 0.781, "Machine Learning"},
      {sim::WorkloadKind::kNlp, 0.928, "Machine Learning"},
      {sim::WorkloadKind::kWeb, 0.572, "Traditional"},
      {sim::WorkloadKind::kZipf, 0.500, "Traditional"},
      {sim::WorkloadKind::kMd, 1.000, "Traditional"},
  };

  TablePrinter table({"Workload", "Scenario", "Meta_op ratio (paper)",
                      "Meta_op ratio (measured)", "Dirs", "Files",
                      "Recurrent visits"});
  sim::ShapeChecker checks;

  for (const Row& row : rows) {
    sim::ScenarioConfig cfg = opts.config(row.kind, sim::BalancerKind::kNone);
    cfg.data_enabled = true;
    cfg.data_capacity = 1e9;  // never the bottleneck: measure pure ratios
    auto s = sim::make_scenario(cfg);
    s->run();

    std::uint64_t meta = 0;
    std::uint64_t data = 0;
    for (const auto& c : s->clients()) {
      meta += c->meta_ops_completed();
      data += c->data_ops_completed();
    }
    const double measured =
        static_cast<double>(meta) / static_cast<double>(meta + data);

    // Namespace census (excluding the root and mount point).
    const std::size_t dirs = s->tree().dir_count() - 2;
    const std::uint64_t files =
        s->tree().total_inodes() - s->tree().dir_count();

    // Recurrence census over all files touched.  With no balancer nothing
    // splits, so every op served was recorded exactly once.
    std::uint64_t recurrent = 0;
    for (DirId d = 0; d < s->tree().dir_count(); ++d) {
      for (const auto& frag : s->tree().frags(d)) {
        recurrent += frag.windows.sums().recurrent;
      }
    }
    const std::uint64_t visits = s->cluster().total_served();
    const double recur_hint =
        visits > 0 ? static_cast<double>(recurrent) /
                         static_cast<double>(visits)
                   : 0.0;

    table.add_row({std::string(sim::workload_name(row.kind)), row.scenario,
                   TablePrinter::fmt(row.paper_meta_ratio * 100.0, 1) + "%",
                   TablePrinter::fmt(measured * 100.0, 1) + "%",
                   TablePrinter::fmt(static_cast<std::uint64_t>(dirs)),
                   TablePrinter::fmt(files),
                   TablePrinter::fmt(recur_hint * 100.0, 1) + "%"});
    checks.expect(std::abs(measured - row.paper_meta_ratio) < 0.05,
                  std::string(sim::workload_name(row.kind)) +
                      " measured meta-op ratio within 5% of Table 1");
  }

  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Table 1: five evaluated workloads");
  }
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
