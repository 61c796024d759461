// Microbenchmarks of the simulator substrate (google-benchmark): the
// namespace tree's hot paths, the access recorder, path resolution, the
// migration engine tick, and the end-to-end simulation throughput in
// operation-events per second — the budget every scenario bench draws on.
#include <benchmark/benchmark.h>

#include "fs/builder.h"
#include "fs/path_resolver.h"
#include "mds/cluster.h"
#include "sim/scenario.h"

namespace lunule {
namespace {

void BM_AuthResolutionCached(benchmark::State& state) {
  fs::NamespaceTree tree;
  const auto dirs = fs::build_imagenet_like(tree, "cnn", 1000, 8);
  // Pin a slice so resolution exercises both inherit and explicit paths.
  for (std::size_t i = 0; i < dirs.size(); i += 7) {
    tree.set_auth(dirs[i], static_cast<MdsId>(i % 5));
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.auth_of(dirs[rng.next_below(dirs.size())]));
  }
}
BENCHMARK(BM_AuthResolutionCached);

void BM_AuthResolutionInvalidated(benchmark::State& state) {
  // Worst case: every lookup follows a pin change (cold cache).
  fs::NamespaceTree tree;
  const auto dirs = fs::build_imagenet_like(tree, "cnn", 1000, 8);
  Rng rng(2);
  for (auto _ : state) {
    tree.set_auth(dirs[rng.next_below(dirs.size())],
                  static_cast<MdsId>(rng.next_below(5)));
    benchmark::DoNotOptimize(
        tree.auth_of(dirs[rng.next_below(dirs.size())]));
  }
}
BENCHMARK(BM_AuthResolutionInvalidated);

void BM_CreateFile(benchmark::State& state) {
  fs::NamespaceTree tree;
  const auto dirs = fs::build_private_dirs(tree, "md", 64, 0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.create_file(dirs[rng.next_below(dirs.size())]));
  }
}
BENCHMARK(BM_CreateFile);

void BM_FragmentDirectory(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    fs::NamespaceTree tree;
    const DirId d = tree.add_dir(tree.root(), "big");
    tree.add_files(d, 10000);
    state.ResumeTiming();
    tree.fragment_dir(d, 5);  // 32 frags
  }
}
BENCHMARK(BM_FragmentDirectory);

void BM_PathResolve(benchmark::State& state) {
  fs::NamespaceTree tree;
  fs::build_web_tree(tree, "web", 20, 15, 10);
  const fs::PathResolver resolver(tree);
  Rng rng(4);
  for (auto _ : state) {
    const auto s = rng.next_below(20);
    const auto d = rng.next_below(15);
    benchmark::DoNotOptimize(resolver.resolve(
        "/web/section" + std::to_string(s) + "/dir" + std::to_string(d)));
  }
}
BENCHMARK(BM_PathResolve);

void BM_ClusterServe(benchmark::State& state) {
  fs::NamespaceTree tree;
  const auto dirs = fs::build_private_dirs(tree, "w", 100, 1000);
  mds::ClusterParams cp;
  cp.n_mds = 5;
  cp.mds_capacity_iops = 1e9;  // never saturate: measure the serve path
  mds::MdsCluster cluster(tree, cp);
  cluster.begin_tick(0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.try_serve(
        dirs[rng.next_below(dirs.size())],
        static_cast<FileIndex>(rng.next_below(1000))));
  }
}
BENCHMARK(BM_ClusterServe);

void BM_MigrationEngineTick(benchmark::State& state) {
  fs::NamespaceTree tree;
  const auto dirs = fs::build_private_dirs(tree, "w", 64, 500);
  mds::MigrationParams mp;
  mp.bandwidth_inodes_per_tick = 1.0;  // keep tasks in flight
  mp.hot_abort_iops = 1e9;
  mds::MigrationEngine engine(tree, mp);
  for (int i = 0; i < 8; ++i) {
    engine.submit({.dir = dirs[static_cast<std::size_t>(i)]},
                  static_cast<MdsId>(1 + i % 4));
  }
  for (auto _ : state) {
    engine.tick();
  }
}
BENCHMARK(BM_MigrationEngineTick);

void BM_EndToEndSimulation(benchmark::State& state) {
  // Whole-scenario throughput: simulated op-events per wall second.
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kZipf;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_clients = 50;
  cfg.scale = 0.05;
  cfg.max_ticks = 400;
  std::uint64_t served = 0;
  for (auto _ : state) {
    const sim::ScenarioResult r = sim::run_scenario(cfg);
    served += r.total_served;
    benchmark::DoNotOptimize(r.total_served);
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lunule

BENCHMARK_MAIN();
