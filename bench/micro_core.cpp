// Microbenchmarks of Lunule's per-epoch computations (google-benchmark).
//
// The paper claims "no visible CPU utilization variance" when Lunule is
// enabled; these benchmarks quantify the cost of each component at realistic
// cluster and candidate-set sizes to substantiate that claim: everything
// here runs in microseconds per epoch, against a 10-second epoch period.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "balancer/candidates.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/imbalance_factor.h"
#include "core/lunule_balancer.h"
#include "core/migration_initiator.h"
#include "core/pattern_analyzer.h"
#include "core/subtree_selector.h"
#include "fs/builder.h"
#include "mds/access_recorder.h"
#include "mds/cluster.h"

namespace lunule {
namespace {

void BM_ImbalanceFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> loads(n);
  for (auto& l : loads) l = rng.next_double() * 2500.0;
  const core::IfParams params{.mds_capacity = 2500.0, .smoothness = 0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::imbalance_factor(loads, params));
  }
}
BENCHMARK(BM_ImbalanceFactor)->Arg(5)->Arg(16)->Arg(64);

void BM_RoleDecider(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<core::MdsLoadStat> stats(n);
  for (std::size_t i = 0; i < n; ++i) {
    stats[i].id = static_cast<MdsId>(i);
    stats[i].cld = rng.next_double() * 2500.0;
    stats[i].fld = stats[i].cld * (0.9 + 0.2 * rng.next_double());
  }
  const core::RoleDeciderParams params{.load_threshold = 0.0025,
                                       .epoch_capacity_cap = 1500.0};
  for (auto _ : state) {
    auto copy = stats;
    benchmark::DoNotOptimize(core::decide_roles(copy, params));
  }
}
BENCHMARK(BM_RoleDecider)->Arg(5)->Arg(16)->Arg(64);

void BM_ComputeMindex(benchmark::State& state) {
  balancer::Candidate c;
  c.windows = {.visits = 4200,
               .first_visits = 1800,
               .recurrent = 2100,
               .sibling_credit = 120.5};
  c.unvisited = 5200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_mindex(c));
  }
}
BENCHMARK(BM_ComputeMindex);

void BM_CandidateScan(benchmark::State& state) {
  // Candidate enumeration over a CNN-sized namespace (1000 leaf dirs).
  fs::NamespaceTree tree;
  fs::build_imagenet_like(tree, "cnn", 1000, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(balancer::collect_candidates(tree, 0));
  }
}
BENCHMARK(BM_CandidateScan);

void BM_SubtreeSelect(benchmark::State& state) {
  fs::NamespaceTree tree;
  const auto dirs = fs::build_imagenet_like(tree, "cnn", 1000, 16);
  Rng rng(3);
  for (const DirId d : dirs) {
    fs::FragStats& f = tree.frag(d, 0);
    const auto v = static_cast<std::uint32_t>(rng.next_below(600));
    f.windows.push({.visits = v, .first_visits = v / 2, .recurrent = v / 2},
                   0.0);
  }
  core::SelectorParams params;
  params.window_seconds = 60.0;
  const core::SubtreeSelector selector(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(tree, 0, 500.0));
  }
}
BENCHMARK(BM_SubtreeSelect);

void BM_LunuleSelect(benchmark::State& state) {
  // Lunule's per-exporter collect + score over a tenant-style namespace:
  // 100,000 leaf directories of 8 files in 16 groups pinned round-robin to
  // 4 ranks.  Every epoch 20,000 hot directories are read again and 1,212
  // fresh ones once; the fresh ones keep their heat for about 21 epochs
  // but their windows for only 6, so the active set (45.6k) carries a 36%
  // heat-only tail that the window-live set (29.1k) drops.  Arg 0 walks
  // the active set, arg 1 the window-live set that Lunule collects from;
  // per_unit is wall time per directory walked, `units` that count.
  // Between timed walks an untimed sweep over 32 MB pushes the namespace
  // out of the core's private caches, as a simulated epoch's ops do.
  constexpr std::uint32_t kGroups = 16;
  constexpr std::uint32_t kPerGroup = 6250;
  constexpr std::size_t kHot = 20000;
  constexpr std::size_t kFresh = 1212;
  fs::NamespaceTree tree;
  tree.reserve_dirs(kGroups * (kPerGroup + 1));
  std::vector<DirId> leaves;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    const std::vector<DirId> group = fs::build_private_dirs(
        tree, "tenants" + std::to_string(g), kPerGroup, 8);
    tree.set_auth(tree.parent(group.front()), static_cast<MdsId>(g % 4));
    leaves.insert(leaves.end(), group.begin(), group.end());
  }
  Rng shuffle(9);
  for (std::size_t i = leaves.size(); i > 1; --i) {
    std::swap(leaves[i - 1], leaves[shuffle.next_below(i)]);
  }
  mds::AccessRecorder recorder(tree, mds::RecorderParams{}, Rng(10));
  Rng rng(11);
  std::size_t fresh = kHot;
  for (EpochId e = 0; e < 40; ++e) {
    for (std::size_t h = 0; h < kHot; ++h) {
      recorder.record(leaves[h], static_cast<FileIndex>(rng.next_below(8)),
                      e);
    }
    for (std::size_t k = 0; k < kFresh; ++k, ++fresh) {
      recorder.record(leaves[fresh % leaves.size()],
                      static_cast<FileIndex>(rng.next_below(8)), e);
    }
    recorder.close_epoch();
  }
  const std::vector<DirId>& live = state.range(0) == 0
                                       ? recorder.active_dirs()
                                       : recorder.window_live_dirs();
  core::SelectorParams params;
  params.window_seconds = 60.0;
  std::vector<balancer::Candidate> cands;
  std::vector<std::uint64_t> sweep(std::size_t{4} << 20);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint64_t& word : sweep) ++word;
    benchmark::ClobberMemory();
    state.ResumeTiming();
    balancer::collect_candidates_into(cands, tree, /*owner=*/0, &live);
    double predicted = 0.0;
    for (const balancer::Candidate& c : cands) {
      predicted +=
          core::compute_mindex(c).predicted_iops(params.window_seconds);
    }
    benchmark::DoNotOptimize(predicted);
  }
  state.counters["units"] = static_cast<double>(live.size());
  state.counters["per_unit"] = benchmark::Counter(
      static_cast<double>(live.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_LunuleSelect)->ArgName("window_live")->Arg(0)->Arg(1);

void BM_RecordAccess(benchmark::State& state) {
  fs::NamespaceTree tree;
  const auto dirs = fs::build_private_dirs(tree, "w", 64, 4096);
  mds::AccessRecorder recorder(tree, mds::RecorderParams{}, Rng(4));
  Rng rng(5);
  EpochId epoch = 0;
  for (auto _ : state) {
    const DirId d = dirs[rng.next_below(dirs.size())];
    const auto i = static_cast<FileIndex>(rng.next_below(4096));
    benchmark::DoNotOptimize(recorder.record(d, i, epoch));
    ++epoch;
  }
}
BENCHMARK(BM_RecordAccess);

/// Reads every directory of `dirs` 1–241 times (a skewed, seeded count)
/// and closes the epoch, so each unit has its own heat and last-epoch
/// visits: few ties, as in a loaded namespace.
void load_units(mds::MdsCluster& cluster, const std::vector<DirId>& dirs) {
  Rng rng(12);
  for (const DirId d : dirs) {
    const std::uint64_t reads = 1 + rng.next_below(32) * rng.next_below(32) / 4;
    for (std::uint64_t k = 0; k < reads; ++k) {
      cluster.recorder().record(d, static_cast<FileIndex>(k % 8), 0);
    }
  }
  cluster.recorder().close_epoch();
}

void BM_HeatShareWalk(benchmark::State& state) {
  // CephFS's heat-share walk (Vanilla, GreedySpill, Lunule-Light) over one
  // rank owning `units` hot leaf directories: collect, sum the heat, visit
  // hottest first.  Arg 1 is where the visitor stops (0 = never), as
  // Vanilla stops at its export limit or once the excess is placed.
  const auto units = static_cast<std::uint32_t>(state.range(0));
  const auto stop = static_cast<std::size_t>(state.range(1));
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs = fs::build_private_dirs(tree, "w", units, 8);
  mds::ClusterParams params;
  params.n_mds = 4;
  mds::MdsCluster cluster(tree, params);
  load_units(cluster, dirs);
  std::vector<balancer::Candidate> cands;
  std::size_t visited = 0;
  for (auto _ : state) {
    visited = 0;
    balancer::walk_heat_share(cands, cluster, 0, 2500.0,
                              [&](const balancer::Candidate&, double) {
                                return ++visited != stop;
                              });
    benchmark::DoNotOptimize(visited);
  }
  state.counters["visited"] = static_cast<double>(visited);
}
BENCHMARK(BM_HeatShareWalk)
    ->ArgNames({"units", "stop"})
    ->Args({4096, 16})
    ->Args({4096, 0})
    ->Args({32768, 16})
    ->Args({32768, 0});

void BM_HottestShardWalk(benchmark::State& state) {
  // Lunule-Hash's epoch: `units` leaf directories hash-pinned over 4
  // ranks, rank 0 overloaded, so its shards are walked by last-epoch
  // visits until the importers' demand is met.  The queued exports are
  // dropped between iterations, so every epoch plans from the same state.
  const auto units = static_cast<std::uint32_t>(state.range(0));
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs = fs::build_private_dirs(tree, "w", units, 8);
  mds::ClusterParams params;
  params.n_mds = 4;
  mds::MdsCluster cluster(tree, params);
  core::LunuleParams lp = core::LunuleParams::for_cluster(params);
  lp.selection = core::SelectionRule::kHottestShard;
  lp.min_pipeline_fraction = 0.0;
  core::LunuleBalancer balancer(lp);
  balancer.setup(cluster);
  load_units(cluster, dirs);
  const std::vector<Load> loads = {2400.0, 1500.0, 1500.0, 1500.0};
  std::size_t queued = 0;
  for (auto _ : state) {
    balancer.on_epoch(cluster, loads);
    state.PauseTiming();
    queued = cluster.migration().pending_exports(0);
    for (MdsId m = 0; m < 4; ++m) cluster.migration().drop_queued(m);
    state.ResumeTiming();
  }
  state.counters["queued"] = static_cast<double>(queued);
}
BENCHMARK(BM_HottestShardWalk)->ArgName("units")->Arg(4096)->Arg(32768);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler sampler(10000, 0.83);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace
}  // namespace lunule

BENCHMARK_MAIN();
