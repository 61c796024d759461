// Microbenchmarks of the simulator substrate (google-benchmark): the
// namespace tree's hot paths, the access recorder, path resolution, the
// migration engine tick, a client's location check, one rank's journal
// epoch, and the end-to-end simulation throughput in operation-events per
// second — the budget every scenario bench draws on.
#include <benchmark/benchmark.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdint>
#include <fstream>
#include <memory>
#include <vector>

#include "common/zipf.h"
#include "fs/builder.h"
#include "fs/path_resolver.h"
#include "journal/journal.h"
#include "mds/cluster.h"
#include "sim/scenario.h"
#include "workloads/client.h"
#include "workloads/tenant_mix.h"

namespace lunule {
namespace {

/// Resident set of this process in MB; 0 where /proc is unavailable.
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

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

void BM_ClientLocationCheck(benchmark::State& state) {
  // One tenant-style client on a Zipf stream over N eight-file directories,
  // every 97th pinned to one of ranks 1-3: each op pays the workload draw,
  // the location check (a lookup in the client's lease cache, and the path
  // walk with its forwards on a miss) and the serve.  The counters give ns
  // per op and how much the resident set grew while the client ran, which
  // is where a location cache sized by the namespace shows.  One iteration
  // is one tick of up to 500 ops.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  fs::NamespaceTree tree;
  auto dirs = std::make_shared<const std::vector<DirId>>(
      fs::build_private_dirs(tree, "t", n, 8));
  for (std::size_t i = 0; i < dirs->size(); i += 97) {
    tree.set_auth((*dirs)[i], static_cast<MdsId>(1 + i % 3));
  }
  mds::ClusterParams cp;
  cp.n_mds = 4;
  cp.mds_capacity_iops = 1e9;  // never saturate: measure the op path
  mds::MdsCluster cluster(tree, cp);
  workloads::Client client(
      0, {.max_ops_per_tick = 500.0},
      std::make_unique<workloads::TenantMixProgram>(
          dirs, 8, std::uint64_t{1} << 40, 0.0,
          std::make_shared<ZipfSampler>(n, 1.0), Rng(6)));
#if defined(__GLIBC__)
  malloc_trim(0);  // freed heap pages must not hide the growth
#endif
  const double rss_before = resident_mb();
  Tick now = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    cluster.begin_tick(now);
    ops += client.run_tick(cluster, nullptr, now);
    cluster.end_tick();
    ++now;
  }
  benchmark::DoNotOptimize(client.forwards());
  state.counters["per_op"] = benchmark::Counter(
      static_cast<double>(ops),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["rss_growth_mb"] = resident_mb() - rss_before;
}
BENCHMARK(BM_ClientLocationCheck)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Iterations(2000)
    ->Unit(benchmark::kMillisecond);

void BM_JournalEpoch(benchmark::State& state) {
  // One rank's md-create-journal epoch on a default journal: ten ticks of
  // 1,100 EUpdates round-robin over 25 directories, each tick ending in a
  // group commit, then the epoch's ESubtreeMap (25 owned directories and a
  // full load history), its forced flush and the trim.  per_append is wall
  // time per appended entry, so it carries the flush and trim costs too.
  constexpr int kTicks = 10;
  constexpr int kCreatesPerTick = 1100;
  constexpr DirId kDirs = 25;
  journal::MdsJournal j(0, journal::JournalParams{.enabled = true});
  std::vector<fs::SubtreeRef> owned;
  for (DirId d = 0; d < kDirs; ++d) owned.push_back(fs::SubtreeRef{.dir = d});
  const std::vector<double> history(12, 100.0);
  Tick now = 0;
  EpochId epoch = 0;
  std::uint64_t appends = 0;
  for (auto _ : state) {
    for (int t = 0; t < kTicks; ++t, ++now) {
      for (int i = 0; i < kCreatesPerTick; ++i) {
        j.append({.tick = now,
                  .epoch = epoch,
                  .dir = static_cast<DirId>(i) % kDirs,
                  .frag = kWholeDir});
      }
      j.flush(now);
    }
    j.append_checkpoint(now, epoch++,
                        {.owned = owned, .load_history = history});
    j.flush(now);
    benchmark::DoNotOptimize(j.trim());
    appends += kTicks * kCreatesPerTick + 1;
  }
  state.counters["per_append"] = benchmark::Counter(
      static_cast<double>(appends),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_JournalEpoch)->Unit(benchmark::kMicrosecond);

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
