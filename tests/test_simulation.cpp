// Tests for the simulation engine and metrics collection.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "sim/scenario.h"
#include "workloads/scan.h"

namespace lunule::sim {
namespace {

std::unique_ptr<Simulation> tiny_sim(Tick max_ticks, bool stop_when_done,
                                     std::size_t n_clients = 2) {
  ScenarioConfig cfg;
  cfg.balancer = BalancerKind::kNone;
  cfg.n_mds = 2;
  cfg.n_clients = n_clients;
  cfg.mds_capacity_iops = 100.0;
  cfg.epoch_ticks = 5;
  cfg.max_ticks = max_ticks;
  cfg.stop_when_done = stop_when_done;
  auto tree = std::make_unique<fs::NamespaceTree>();
  const auto dirs = fs::build_private_dirs(*tree, "w", 4, 50);
  auto sim = std::make_unique<Simulation>(cfg, std::move(tree));
  for (std::size_t c = 0; c < n_clients; ++c) {
    sim->add_client(std::make_unique<workloads::Client>(
        static_cast<std::uint32_t>(c),
        workloads::ClientParams{.max_ops_per_tick = 10.0},
        std::make_unique<workloads::ScanProgram>(
            std::vector<DirId>{dirs[c]}, std::vector<std::uint32_t>{50},
            1.0 - 1e-9)));
  }
  return sim;
}

TEST(Simulation, StopsWhenAllJobsComplete) {
  auto sim = tiny_sim(1000, /*stop_when_done=*/true);
  sim->run();
  EXPECT_EQ(sim->clients_done(), 2u);
  EXPECT_LT(sim->end_tick(), 20);
  const auto jcts = sim->job_completion_seconds();
  EXPECT_EQ(jcts.size(), 2u);
}

TEST(Simulation, RunsToMaxTicksOtherwise) {
  auto sim = tiny_sim(40, /*stop_when_done=*/false);
  sim->run();
  EXPECT_EQ(sim->end_tick(), 40);
  // 40 ticks at 5 ticks/epoch => 8 epochs collected.
  EXPECT_EQ(sim->metrics().epochs(), 8u);
  EXPECT_EQ(sim->metrics().ranks(), 2u);
}

TEST(Simulation, ScheduledEventsFire) {
  auto sim = tiny_sim(40, /*stop_when_done=*/false);
  std::vector<Tick> fired;
  sim->schedule(7, [&](Simulation& s) { fired.push_back(s.now()); });
  sim->schedule(21, [&](Simulation& s) { fired.push_back(s.now()); });
  sim->run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 7);
  EXPECT_EQ(fired[1], 21);
}

TEST(Simulation, EventCanExpandCluster) {
  auto sim = tiny_sim(40, /*stop_when_done=*/false);
  sim->schedule(10, [](Simulation& s) { s.cluster().add_server(); });
  sim->run();
  EXPECT_EQ(sim->cluster().size(), 3u);
  // Epochs 0 and 1 (ticks 0-9) closed before MDS-3 joined: their rows hold
  // two ranks, and the new rank's column reads 0 there.
  const MetricsCollector& m = sim->metrics();
  ASSERT_EQ(m.epochs(), 8u);
  EXPECT_EQ(m.ranks(), 3u);
  for (std::size_t e = 0; e < m.epochs(); ++e) {
    EXPECT_EQ(m.rows()[e].loads.size(), e < 2 ? 2u : 3u) << e;
  }
  const std::vector<double> joined = m.rank_iops(2);
  ASSERT_EQ(joined.size(), m.epochs());
  EXPECT_EQ(joined[0], 0.0);
  EXPECT_EQ(joined[1], 0.0);
  EXPECT_GT(m.rank_iops(0)[0], 0.0);  // the early epochs did carry load
}

TEST(Simulation, LateRankColumnKeepsItsEpochs) {
  fs::NamespaceTree tree;
  mds::ClusterParams cp;
  cp.n_mds = 3;
  const mds::MdsCluster cluster(tree, cp);
  MetricsCollector m(5.0, core::IfParams{.mds_capacity = 100.0});
  m.on_epoch(cluster, std::vector<Load>{4.0, 2.0});
  m.on_epoch(cluster, std::vector<Load>{6.0, 2.0});
  m.on_epoch(cluster, std::vector<Load>{3.0, 2.0, 7.0});
  m.on_epoch(cluster, std::vector<Load>{1.0, 2.0, 9.0});
  EXPECT_EQ(m.ranks(), 3u);
  EXPECT_EQ(m.rank_iops(2), (std::vector<double>{0.0, 0.0, 7.0, 9.0}));
  EXPECT_EQ(m.rank_iops(0), (std::vector<double>{4.0, 6.0, 3.0, 1.0}));
  EXPECT_EQ(m.aggregate_iops(), (std::vector<double>{6.0, 8.0, 12.0, 12.0}));
  EXPECT_DOUBLE_EQ(m.peak_aggregate_iops(), 12.0);
}

TEST(Simulation, MetricsAggregateMatchesSumOfPerMds) {
  auto sim = tiny_sim(40, /*stop_when_done=*/false);
  sim->run();
  const auto& m = sim->metrics();
  const std::vector<double> aggregate = m.aggregate_iops();
  for (std::size_t e = 0; e < m.epochs(); ++e) {
    double total = 0.0;
    for (std::size_t i = 0; i < m.ranks(); ++i) total += m.rank_iops(i)[e];
    EXPECT_NEAR(aggregate[e], total, 1e-9);
  }
}

TEST(Scenario, DeterministicAcrossRuns) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kZipf;
  cfg.balancer = BalancerKind::kLunule;
  cfg.n_clients = 20;
  cfg.scale = 0.05;
  cfg.max_ticks = 300;
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  EXPECT_EQ(a.total_served, b.total_served);
  EXPECT_EQ(a.migrated_total, b.migrated_total);
  EXPECT_EQ(a.end_tick, b.end_tick);
  EXPECT_DOUBLE_EQ(a.metrics.mean_if(), b.metrics.mean_if());
}

TEST(Scenario, SeedChangesOutcomeDetails) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kZipf;
  cfg.balancer = BalancerKind::kVanilla;
  cfg.n_clients = 20;
  cfg.scale = 0.05;
  cfg.max_ticks = 300;
  const ScenarioResult a = run_scenario(cfg);
  cfg.seed = 777;
  const ScenarioResult b = run_scenario(cfg);
  // Both runs complete all jobs, so the grand total matches; the seed
  // changes the request placement, hence the per-MDS distribution.
  EXPECT_NE(a.total_served_per_mds, b.total_served_per_mds);
}

}  // namespace
}  // namespace lunule::sim
