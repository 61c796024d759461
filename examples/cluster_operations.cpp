// Cluster operations example: expanding the MDS cluster and absorbing
// client growth at runtime (the paper's Section 4.5 scenarios).
//
// Starts a 3-MDS cluster under steady Zipf load, adds two MDSs mid-run,
// then launches an extra client wave, printing how Lunule redistributes
// after each event.
//
//   ./cluster_operations [--ticks=N]
#include <iostream>
#include <memory>

#include "common/flags.h"
#include "common/zipf.h"
#include "fs/builder.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "workloads/zipf_read.h"

int main(int argc, char** argv) {
  using namespace lunule;
  Flags flags(argc, argv);
  const Tick ticks = flags.get_int("ticks", 1200);
  flags.check_unused();

  // Build the namespace and the clients by hand to show the library's
  // lower-level API; the engine itself comes from the config.
  constexpr std::uint32_t kFiles = 1000;
  constexpr std::uint32_t kClients = 60;
  sim::ScenarioConfig cfg;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_mds = 3;
  cfg.n_clients = kClients;
  cfg.max_ticks = ticks;
  cfg.stop_when_done = false;
  auto tree = std::make_unique<fs::NamespaceTree>();
  const auto dirs = fs::build_private_dirs(*tree, "zipf", kClients, kFiles);
  sim::Simulation sim(cfg, std::move(tree));

  auto sampler = std::make_shared<ZipfSampler>(
      kFiles, zipf_exponent_for(0.2, 0.8, kFiles));
  Rng rng(1234);
  // 40 clients from the start, 20 more in a later wave.
  for (std::uint32_t c = 0; c < kClients; ++c) {
    workloads::ClientParams p;
    p.max_ops_per_tick = 150.0;
    p.start_tick = c < 40 ? 0 : 2 * ticks / 3;
    sim.add_client(std::make_unique<workloads::Client>(
        c, p,
        std::make_unique<workloads::ZipfReadProgram>(
            dirs[c], kFiles, /*requests=*/1u << 30, sampler, rng.fork(c))));
  }

  sim.schedule(ticks / 3, [](sim::Simulation& s) {
    std::cout << "[t=" << s.now() << "s] adding MDS-"
              << s.cluster().size() + 1 << " and MDS-"
              << s.cluster().size() + 2 << "\n";
    s.cluster().add_server();
    s.cluster().add_server();
  });
  sim.schedule(2 * ticks / 3, [](sim::Simulation& s) {
    std::cout << "[t=" << s.now() << "s] launching 20 extra clients\n";
  });

  std::cout << "Phase 1: 40 clients on 3 MDSs; phase 2: +2 MDSs; "
               "phase 3: +20 clients\n\n";
  sim.run();

  sim::ReportOptions ropts;
  ropts.buckets = 12;
  sim::print_per_mds_iops(std::cout, "per-MDS IOPS across the three phases",
                          sim.metrics(), ropts);
  std::cout << "\ncumulative migrated inodes: "
            << sim.cluster().migration().total_migrated_inodes() << " in "
            << sim.cluster().migration().migrations_completed()
            << " migrations ("
            << sim.cluster().migration().migrations_aborted()
            << " aborted)\n"
            << "final IF: " << sim.metrics().rows().back().imbalance_factor
            << "\n";
  return 0;
}
