// Figure 12: dynamic adaptation under the Zipf workload.
//   (a) MDS cluster expansion: 4 MDSs at start, one added at minute 10 and
//       another at minute 20 — each newcomer absorbs load and the clustered
//       throughput rises (paper: 41k -> 51k -> +10%).
//   (b) client growth: 10 clients at start, +10 per phase — added load
//       lands on one MDS first and is immediately spread; in phase 1 the
//       cluster is lightly loaded and Lunule does NOT re-balance (benign
//       imbalance tolerated by the urgency term).
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "common/zipf.h"
#include "fs/builder.h"
#include "workloads/zipf_read.h"

namespace lunule {
namespace {

/// Builds a simulation with `n_clients` open-ended Zipf clients (their jobs
/// outlive the measurement window, like the paper's sustained-load runs).
std::unique_ptr<sim::Simulation> open_ended_zipf(
    const bench::BenchOptions& opts, std::size_t n_mds,
    std::size_t n_clients, Tick start_phase, double client_rate = 150.0) {
  sim::ScenarioConfig cfg;
  cfg.n_mds = n_mds;
  cfg.n_clients = n_clients;
  cfg.max_ticks = opts.ticks;
  cfg.stop_when_done = false;
  cfg.seed = opts.seed;
  auto tree = std::make_unique<fs::NamespaceTree>();
  const std::uint32_t files = 1000;
  const auto dirs = fs::build_private_dirs(
      *tree, "zipf", static_cast<std::uint32_t>(n_clients), files);
  auto sim_ptr = std::make_unique<sim::Simulation>(cfg, std::move(tree));

  auto sampler = std::make_shared<ZipfSampler>(
      files, zipf_exponent_for(0.2, 0.8, files));
  Rng rng(cfg.seed);
  for (std::size_t c = 0; c < n_clients; ++c) {
    workloads::ClientParams p;
    p.max_ops_per_tick = client_rate;
    p.start_tick =
        start_phase > 0 ? static_cast<Tick>(c / 10) * start_phase : 0;
    sim_ptr->add_client(std::make_unique<workloads::Client>(
        static_cast<std::uint32_t>(c), p,
        std::make_unique<workloads::ZipfReadProgram>(
            dirs[c], files, /*requests=*/1u << 30, sampler,
            rng.fork(c))));
  }
  return sim_ptr;
}

/// Mean aggregate IOPS over each of `phases` equal slices of the run.
std::vector<double> phase_means(const sim::MetricsCollector& m,
                                std::size_t phases) {
  const std::vector<double> aggregate = m.aggregate_iops();
  const std::size_t epochs_per_phase = aggregate.size() / phases;
  std::vector<double> means;
  for (std::size_t p = 0; p < phases; ++p) {
    double acc = 0.0;
    for (std::size_t e = p * epochs_per_phase;
         e < (p + 1) * epochs_per_phase; ++e) {
      acc += aggregate[e];
    }
    means.push_back(acc / static_cast<double>(epochs_per_phase));
  }
  return means;
}

int run_expansion(const bench::BenchOptions& opts,
                  sim::ShapeChecker& checks) {
  const Tick phase = opts.ticks / 3;
  auto sim_ptr = open_ended_zipf(opts, /*n_mds=*/4, opts.clients,
                                 /*start_phase=*/0);
  sim_ptr->schedule(phase, [](sim::Simulation& s) { s.cluster().add_server(); });
  sim_ptr->schedule(2 * phase,
                    [](sim::Simulation& s) { s.cluster().add_server(); });
  sim_ptr->run();

  sim::print_per_mds_iops(std::cout,
                          "Figure 12(a): per-MDS IOPS, MDS added at each "
                          "phase boundary",
                          sim_ptr->metrics(), opts.report);

  const std::vector<double> phase_avg = phase_means(sim_ptr->metrics(), 3);
  std::cout << "Aggregate IOPS per phase: " << phase_avg[0] << " -> "
            << phase_avg[1] << " -> " << phase_avg[2] << "\n";
  checks.expect(phase_avg[1] > 1.05 * phase_avg[0],
                "12a: adding MDS-5 raises clustered throughput");
  checks.expect(phase_avg[2] > 1.05 * phase_avg[1],
                "12a: adding MDS-6 raises it further (paper: +10%)");
  checks.expect(
      sim_ptr->cluster().server(4).total_served() > 0 &&
          sim_ptr->cluster().server(5).total_served() > 0,
      "12a: both added MDSs absorbed migrated load");
  return 0;
}

int run_client_growth(const bench::BenchOptions& opts,
                      sim::ShapeChecker& checks) {
  // 40 open-ended Zipf clients launched in four waves of 10.
  const Tick phase = opts.ticks / 4;
  // Light per-client rate: the first wave of 10 clients leaves every MDS
  // far below capacity, which the urgency term must classify as benign.
  auto sim_ptr = open_ended_zipf(opts, /*n_mds=*/5, /*n_clients=*/40,
                                 /*start_phase=*/phase,
                                 /*client_rate=*/40.0);

  // Probe the migrated-inode counter at the end of phase 1.
  std::uint64_t migrated_phase1 = 0;
  sim_ptr->schedule(phase - 1, [&](sim::Simulation& s) {
    migrated_phase1 = s.cluster().migration().total_migrated_inodes();
  });
  sim_ptr->run();

  sim::print_per_mds_iops(std::cout,
                          "Figure 12(b): per-MDS IOPS, +10 clients per "
                          "phase",
                          sim_ptr->metrics(), opts.report);

  const std::vector<double> phase_avg = phase_means(sim_ptr->metrics(), 4);
  std::cout << "Aggregate IOPS per phase: " << phase_avg[0] << " / "
            << phase_avg[1] << " / " << phase_avg[2] << " / "
            << phase_avg[3] << "\n"
            << "Inodes migrated during the lightly-loaded phase 1: "
            << migrated_phase1 << "\n";

  checks.expect(migrated_phase1 == 0,
                "12b: no re-balance in phase 1 — 10 clients leave every "
                "MDS lightly loaded (urgency tolerates benign imbalance)");
  for (std::size_t p = 1; p < 4; ++p) {
    checks.expect(phase_avg[p] > phase_avg[p - 1] * 1.1,
                  "12b: throughput grows phase " + std::to_string(p) +
                      " -> " + std::to_string(p + 1) +
                      " as clients are added");
  }
  checks.expect(
      sim_ptr->cluster().migration().total_migrated_inodes() > 0,
      "12b: later phases do trigger re-balance (the control case)");
  return 0;
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.3, /*ticks=*/1800);
  sim::ShapeChecker checks;
  run_expansion(opts, checks);
  run_client_growth(opts, checks);
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
