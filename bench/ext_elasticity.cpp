// Extension bench: the elastic MDS pool vs a fixed 16-rank deployment.
//
// A metadata cluster sized for its peak wastes rank-hours whenever traffic
// is below peak.  The autoscaler (docs/ELASTICITY.md) grows the serving set
// from a small floor as load-signal streaks demand it and drains ranks back
// out when utilization falls, paying a journal cold-start window per
// activation.  This bench runs the same Lunule balancer and client fleet
// against both deployments on two traffic shapes:
//
//   diurnal     — five client waves ramping up to a midday peak and back
//                 down (the valley load fits in the two-rank floor);
//   flash crowd — a light long-running baseline plus a sudden burst of
//                 short jobs one third into the run.
//
// Scored on the two axes that matter for an elastic pool:
//   rank-seconds — Σ over ticks of the serving rank count (the bill);
//   tail JCT     — the slowest client's job duration (the SLO).
//
// The [SHAPE-CHECK] gates require the elastic pool to be strictly cheaper
// in rank-seconds on both shapes while keeping tail JCT no worse than the
// fixed pool, and to actually exercise both directions of scaling.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/zipf.h"
#include "fs/builder.h"
#include "workloads/zipf_read.h"

namespace lunule {
namespace {

constexpr std::size_t kPoolRanks = 16;
constexpr std::size_t kFloorRanks = 2;
constexpr double kClientRate = 150.0;
constexpr std::uint32_t kFilesPerDir = 1000;

/// One client to launch: when it starts and how many requests its job is.
struct Wave {
  Tick start = 0;
  std::uint64_t requests = 0;
};

/// Client launch plans for the two traffic shapes.  Request counts are in
/// ops (a client issues ~kClientRate of them per second when unthrottled),
/// scaled by --scale like every other bench.
std::vector<Wave> diurnal_waves(const bench::BenchOptions& opts) {
  // Wave sizes ramp 6 -> 12 -> 18 -> 12 -> 6 like a day of traffic.  Each
  // wave launches at 60% of a job's (scale-adjusted) duration, so adjacent
  // waves overlap into a midday peak of ~26 concurrent clients that a
  // two-rank floor cannot serve, then ebb away again.
  const double job_seconds =
      static_cast<double>(opts.ticks) / 5.0 * opts.scale;
  const auto job = static_cast<std::uint64_t>(job_seconds * kClientRate);
  const auto phase = static_cast<Tick>(job_seconds * 0.6);
  std::vector<Wave> waves;
  const std::size_t sizes[] = {6, 12, 18, 12, 6};
  for (std::size_t w = 0; w < 5; ++w) {
    for (std::size_t c = 0; c < sizes[w]; ++c) {
      waves.push_back({static_cast<Tick>(w) * phase, job});
    }
  }
  return waves;
}

std::vector<Wave> flash_crowd_waves(const bench::BenchOptions& opts) {
  // Eight baseline clients run long jobs from t=0; thirty short jobs slam
  // in together one third into the run (a release-day crowd) and drain
  // away, leaving the baseline to finish on the scaled-down pool.
  const auto long_job = static_cast<std::uint64_t>(
      static_cast<double>(opts.ticks) * 0.7 * kClientRate * opts.scale);
  const auto short_job = long_job / 4;
  std::vector<Wave> waves;
  for (std::size_t c = 0; c < 8; ++c) waves.push_back({0, long_job});
  const auto burst = static_cast<Tick>(opts.ticks / 3);
  for (std::size_t c = 0; c < 30; ++c) waves.push_back({burst, short_job});
  return waves;
}

struct RunResult {
  std::uint64_t rank_seconds = 0;
  double tail_jct = 0.0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t served = 0;
  std::size_t clients_done = 0;
  std::size_t n_clients = 0;
};

RunResult run_shape(const bench::BenchOptions& opts,
                    const std::vector<Wave>& waves, bool elastic) {
  sim::ScenarioConfig cfg;
  cfg.n_mds = kPoolRanks;
  cfg.n_clients = waves.size();
  cfg.max_ticks = opts.ticks;
  cfg.seed = opts.seed;
  // Both deployments journal: the fixed pool pays the steady-state append
  // cost, the elastic pool additionally pays a cold-start replay window
  // per activation — the comparison charges elasticity its full price.
  cfg.journal.enabled = true;
  if (elastic) {
    // The pool starts at its floor; ranks past it are cold standbys.
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.min_ranks = kFloorRanks;
    cfg.autoscaler.max_ranks = kPoolRanks;
    // Agile policy: one-epoch streaks and no cooldown, so the pool tracks
    // a wave within tens of seconds instead of minutes.
    cfg.autoscaler.hysteresis_epochs = 1;
    cfg.autoscaler.cooldown_epochs = 0;
  }
  auto tree = std::make_unique<fs::NamespaceTree>();
  const auto dirs = fs::build_private_dirs(
      *tree, "job", static_cast<std::uint32_t>(waves.size()), kFilesPerDir);
  auto sim_ptr = std::make_unique<sim::Simulation>(cfg, std::move(tree));

  auto sampler = std::make_shared<ZipfSampler>(
      kFilesPerDir, zipf_exponent_for(0.2, 0.8, kFilesPerDir));
  Rng rng(cfg.seed);
  for (std::size_t c = 0; c < waves.size(); ++c) {
    workloads::ClientParams p;
    p.max_ops_per_tick = kClientRate;
    p.start_tick = waves[c].start;
    sim_ptr->add_client(std::make_unique<workloads::Client>(
        static_cast<std::uint32_t>(c), p,
        std::make_unique<workloads::ZipfReadProgram>(
            dirs[c], kFilesPerDir, waves[c].requests, sampler,
            rng.fork(c))));
  }
  sim_ptr->run();

  RunResult r;
  r.rank_seconds = sim_ptr->rank_seconds();
  const auto& clients = sim_ptr->clients();
  for (std::size_t c = 0; c < clients.size(); ++c) {
    if (!clients[c]->done()) continue;
    ++r.clients_done;
    const double jct =
        static_cast<double>(clients[c]->completion_tick() - waves[c].start);
    r.tail_jct = std::max(r.tail_jct, jct);
  }
  r.n_clients = clients.size();
  r.scale_ups = sim_ptr->cluster().elasticity().activations;
  r.scale_downs = sim_ptr->cluster().elasticity().retirements;
  r.served = sim_ptr->cluster().total_served();
  return r;
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, /*scale=*/0.3, /*ticks=*/1800);
  sim::ShapeChecker checks;

  TablePrinter table({"Traffic", "Pool", "rank-seconds", "tail JCT",
                      "scale-ups", "scale-downs", "done", "served ops"});
  struct Shape {
    const char* label;
    std::vector<Wave> waves;
  };
  const Shape shapes[] = {
      {"diurnal", diurnal_waves(opts)},
      {"flash crowd", flash_crowd_waves(opts)},
  };
  for (const Shape& shape : shapes) {
    const RunResult fixed = run_shape(opts, shape.waves, /*elastic=*/false);
    const RunResult elastic = run_shape(opts, shape.waves, /*elastic=*/true);
    for (const auto* row : {&fixed, &elastic}) {
      table.add_row({shape.label,
                     row == &fixed ? "fixed-16" : "elastic",
                     TablePrinter::fmt(row->rank_seconds),
                     TablePrinter::fmt(row->tail_jct, 0) + " s",
                     TablePrinter::fmt(row->scale_ups),
                     TablePrinter::fmt(row->scale_downs),
                     TablePrinter::fmt(row->clients_done) + "/" +
                         TablePrinter::fmt(row->n_clients),
                     TablePrinter::fmt(row->served)});
    }

    const std::string tag(shape.label);
    checks.expect(fixed.clients_done == fixed.n_clients &&
                      elastic.clients_done == elastic.n_clients,
                  tag + ": every client finishes on both pools");
    checks.expect(elastic.rank_seconds < fixed.rank_seconds,
                  tag + ": elastic pool is strictly cheaper in "
                        "rank-seconds than fixed-16");
    checks.expect(elastic.tail_jct <= fixed.tail_jct,
                  tag + ": ...at equal-or-better tail JCT");
    checks.expect(elastic.scale_ups > 0,
                  tag + ": the pool grew beyond its floor");
    checks.expect(elastic.served == fixed.served,
                  tag + ": both pools complete the same total work");
    checks.expect(fixed.scale_ups == 0 && fixed.scale_downs == 0,
                  tag + ": the fixed pool never scales (control)");
  }

  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Elastic MDS pool vs fixed 16 ranks (Lunule balancer, "
                "journaled, rank-seconds billed per tick)");
  }
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
