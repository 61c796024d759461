// Hot-path microbenchmark: authority resolution, epoch close, and
// candidate collection, each against its naive counterpart, at
// 10k / 100k / 500k / 2M directories with a 1% hot set, plus the
// worker-pool scaling of the epoch-close fold at 1 / 2 / 4 shards
// (shards = 1 + pool workers, mirroring the sharded tick engine's
// sharded_ticks knob).  The naive counterparts: the cached auth_of vs
// the pin-chain walk (resolve_auth_uncached), and candidate collection
// over the recorder's live set vs the whole-namespace scan (the scan
// Dir-Hash placement uses), both after the same dirty-set epoch close.
//
// Hand-rolled chrono timing (not google-benchmark): each phase is a paired
// A/B measurement of the same work both ways, and the [SHAPE-CHECK] gates
// are ratios, so the bench passes in Debug and Release alike.  The shard
// scaling gate additionally requires >= 4 hardware threads — on smaller
// hosts the rows are still measured and reported, but time-sliced threads
// cannot show wall-clock speedup, so the gate is skipped.  Emits
// machine-readable results as JSON (--json=PATH, default
// BENCH_hotpath.json in the working directory); scripts/bench_trajectory.sh
// runs it from a Release build and stores the JSON at the repo root.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "balancer/candidates.h"
#include "bench_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "fs/namespace_tree.h"
#include "mds/access_recorder.h"

namespace lunule {
namespace {

/// Depth of the directory chain the fan-out hangs from: uncached authority
/// resolution walks it on every lookup, the flat cache does not.
constexpr int kChainDepth = 32;
constexpr std::uint32_t kFilesPerDir = 4;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Builds a chain of kChainDepth dirs with `n_dirs` file-bearing leaf
/// directories fanned out under the last one; returns the leaf ids.
std::vector<DirId> build_fanout(fs::NamespaceTree& tree, std::size_t n_dirs) {
  DirId parent = tree.root();
  for (int i = 0; i < kChainDepth; ++i) parent = tree.add_dir(parent, "c");
  std::vector<DirId> leaves;
  leaves.reserve(n_dirs);
  for (std::size_t i = 0; i < n_dirs; ++i) {
    const DirId d = tree.add_dir(parent, "d");
    tree.add_files(d, kFilesPerDir);
    leaves.push_back(d);
  }
  return leaves;
}

/// Epoch-close cost at one shard count (1 shard = serial fold).
struct ShardRow {
  int shards = 1;
  double epoch_close_us = 0.0;
  double speedup_vs_1 = 1.0;
};

struct SizeResult {
  std::size_t dirs = 0;
  std::size_t hot_dirs = 0;
  double auth_cached_ns = 0.0;
  double auth_uncached_ns = 0.0;
  double auth_speedup = 0.0;
  double epoch_close_on_us = 0.0;
  double epoch_close_off_us = 0.0;
  double epoch_close_speedup = 0.0;
  std::size_t live_candidates = 0;
  int timed_epochs = 0;
  std::vector<ShardRow> shard_rows;
};

/// Random authority lookups over the fan-out: the flat cache (auth_of) vs
/// the pin-chain walk (resolve_auth_uncached).
void bench_auth_lookup(SizeResult& r, std::size_t n_dirs) {
  fs::NamespaceTree tree;
  const std::vector<DirId> leaves = build_fanout(tree, n_dirs);
  // Pin a slice so resolution exercises both inherit and explicit paths.
  for (std::size_t i = 0; i < leaves.size(); i += 16) {
    tree.set_auth(leaves[i], static_cast<MdsId>(i % 5));
  }
  constexpr std::size_t kLookups = 200'000;
  std::int64_t sink = 0;
  for (const bool cached : {true, false}) {
    const auto lookup = [&](DirId d) {
      return cached ? tree.auth_of(d) : tree.resolve_auth_uncached(d);
    };
    // Warm-up pass: the cached row measures steady-state hits, not the
    // one-time fill cost of a cold cache (and the uncached row gets the
    // same page/TLB warming so the comparison stays paired).
    Rng warm(11);
    for (std::size_t i = 0; i < kLookups; ++i) {
      sink += lookup(leaves[warm.next_below(leaves.size())]);
    }
    Rng rng(11);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kLookups; ++i) {
      sink += lookup(leaves[rng.next_below(leaves.size())]);
    }
    const double ns = seconds_since(t0) * 1e9 / kLookups;
    (cached ? r.auth_cached_ns : r.auth_uncached_ns) = ns;
  }
  if (sink == -1) std::cout << "";  // keep the lookups observable
  r.auth_speedup = r.auth_uncached_ns / r.auth_cached_ns;
}

/// One epoch of synthetic load on the hot set + close + candidate
/// collection, collecting over the recorder's live set ("on") vs over the
/// whole namespace ("off").
void bench_epoch_close(SizeResult& r, std::size_t n_dirs, int timed_epochs) {
  constexpr int kWarmEpochs = 6;
  const std::size_t stride = n_dirs / r.hot_dirs;
  for (const bool live_set : {true, false}) {
    fs::NamespaceTree tree;
    const std::vector<DirId> leaves = build_fanout(tree, n_dirs);
    mds::RecorderParams params;
    params.sibling_credit_prob = 0.0;  // isolate the close/scan cost
    mds::AccessRecorder recorder(tree, params, Rng(23));
    const std::vector<DirId>* live =
        live_set ? &recorder.active_dirs() : nullptr;
    std::vector<balancer::Candidate> cands;
    double elapsed = 0.0;
    EpochId epoch = 0;
    for (int e = 0; e < kWarmEpochs + timed_epochs; ++e, ++epoch) {
      for (std::size_t h = 0; h < r.hot_dirs; ++h) {
        const DirId d = leaves[h * stride];
        recorder.record(d, static_cast<FileIndex>(e % kFilesPerDir), epoch);
        recorder.record(d, static_cast<FileIndex>((e + 1) % kFilesPerDir),
                        epoch);
      }
      const auto t0 = Clock::now();
      recorder.close_epoch();
      balancer::collect_candidates_into(cands, tree, /*owner=*/0, live);
      if (e >= kWarmEpochs) elapsed += seconds_since(t0);
    }
    const double us = elapsed * 1e6 / timed_epochs;
    (live_set ? r.epoch_close_on_us : r.epoch_close_off_us) = us;
    if (live_set) r.live_candidates = cands.size();
  }
  r.timed_epochs = timed_epochs;
  r.epoch_close_speedup = r.epoch_close_off_us / r.epoch_close_on_us;
}

/// Epoch close + candidate collection on the worker pool at 1 / 2 / 4
/// shards (the same per-chunk fold the sharded tick engine drives through
/// MdsCluster::close_epoch).  One tree serves all shard counts: every
/// epoch records and folds the same hot set, so after the warm-up the
/// per-epoch work is identical regardless of which pool executes it.
void bench_shard_scaling(SizeResult& r, std::size_t n_dirs,
                         int timed_epochs) {
  constexpr int kWarmEpochs = 6;
  const std::size_t stride = n_dirs / r.hot_dirs;
  fs::NamespaceTree tree;
  const std::vector<DirId> leaves = build_fanout(tree, n_dirs);
  mds::RecorderParams params;
  params.sibling_credit_prob = 0.0;
  mds::AccessRecorder recorder(tree, params, Rng(23));
  const std::vector<DirId>& live = recorder.active_dirs();
  std::vector<balancer::Candidate> cands;
  EpochId epoch = 0;
  const auto run_epochs = [&](int n, WorkerPool* pool) {
    double elapsed = 0.0;
    for (int e = 0; e < n; ++e, ++epoch) {
      for (std::size_t h = 0; h < r.hot_dirs; ++h) {
        const DirId d = leaves[h * stride];
        recorder.record(d, static_cast<FileIndex>(e % kFilesPerDir), epoch);
        recorder.record(d, static_cast<FileIndex>((e + 1) % kFilesPerDir),
                        epoch);
      }
      const auto t0 = Clock::now();
      recorder.close_epoch(pool);
      balancer::collect_candidates_into(cands, tree, /*owner=*/0, &live,
                                        pool);
      elapsed += seconds_since(t0);
    }
    return elapsed;
  };
  run_epochs(kWarmEpochs, nullptr);
  for (const int shards : {1, 2, 4}) {
    WorkerPool pool(static_cast<std::size_t>(shards - 1));
    ShardRow row;
    row.shards = shards;
    row.epoch_close_us =
        run_epochs(timed_epochs, &pool) * 1e6 / timed_epochs;
    row.speedup_vs_1 = r.shard_rows.empty()
                           ? 1.0
                           : r.shard_rows.front().epoch_close_us /
                                 row.epoch_close_us;
    r.shard_rows.push_back(row);
  }
}

SizeResult run_size(std::size_t n_dirs, int timed_epochs) {
  SizeResult r;
  r.dirs = n_dirs;
  r.hot_dirs = n_dirs / 100;
  bench_auth_lookup(r, n_dirs);
  bench_epoch_close(r, n_dirs, timed_epochs);
  bench_shard_scaling(r, n_dirs, timed_epochs);
  return r;
}

void write_json(const std::string& path, const std::vector<SizeResult>& rs) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  // The shard_scaling rows only mean anything on a host with real cores:
  // on a 1-thread machine the pool's workers time-slice one CPU and
  // speedup_vs_1 hovers around 1.0 (or below — context-switch overhead).
  // Stamp the host's thread count and whether the [SHAPE-CHECK] gate was
  // armed, and tag each row produced with the gate down as unarmed, so a
  // committed JSON can't be misread as a scaling regression and downstream
  // consumers (perf-smoke trend tooling) can drop those rows per-row
  // without consulting the top-level flag.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool armed = hw >= 4;
  out << "{\n  \"bench\": \"micro_hotpath\",\n  \"hw_threads\": " << hw
      << ",\n  \"shard_gate_armed\": " << (armed ? "true" : "false")
      << ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const SizeResult& r = rs[i];
    out << "    {\"dirs\": " << r.dirs << ", \"hot_dirs\": " << r.hot_dirs
        << ", \"auth_cached_ns\": " << r.auth_cached_ns
        << ", \"auth_uncached_ns\": " << r.auth_uncached_ns
        << ", \"auth_speedup\": " << r.auth_speedup
        << ", \"epoch_close_on_us\": " << r.epoch_close_on_us
        << ", \"epoch_close_off_us\": " << r.epoch_close_off_us
        << ", \"epoch_close_speedup\": " << r.epoch_close_speedup
        << ", \"live_candidates\": " << r.live_candidates
        << ", \"timed_epochs\": " << r.timed_epochs
        << ", \"shard_scaling\": [";
    for (std::size_t s = 0; s < r.shard_rows.size(); ++s) {
      const ShardRow& row = r.shard_rows[s];
      out << (s > 0 ? ", " : "") << "{\"shards\": " << row.shards
          << ", \"epoch_close_us\": " << row.epoch_close_us
          << ", \"speedup_vs_1\": " << row.speedup_vs_1
          << (armed ? "" : ", \"unarmed\": true") << "}";
    }
    out << "]}" << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "results written to " << path << "\n";
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) {
  using namespace lunule;
  Flags flags(argc, argv);
  const std::string json_path = flags.get("json", "BENCH_hotpath.json");
  flags.check_unused();

  std::vector<SizeResult> results;
  results.push_back(run_size(10'000, 40));
  results.push_back(run_size(100'000, 16));
  results.push_back(run_size(500'000, 8));
  results.push_back(run_size(2'000'000, 3));

  std::cout << "dirs      auth cached/uncached (ns)   epoch close on/off (us)"
               "   speedup\n";
  for (const SizeResult& r : results) {
    std::cout << r.dirs << "  " << r.auth_cached_ns << " / "
              << r.auth_uncached_ns << "  " << r.epoch_close_on_us << " / "
              << r.epoch_close_off_us << "  x" << r.epoch_close_speedup
              << "\n    shards:";
    for (const ShardRow& row : r.shard_rows) {
      std::cout << "  S=" << row.shards << " " << row.epoch_close_us
                << "us (x" << row.speedup_vs_1 << ")";
    }
    std::cout << "\n";
  }
  write_json(json_path, results);

  sim::ShapeChecker checks;
  checks.expect(results[0].epoch_close_speedup >= 1.5,
                "10k dirs: live-set collection beats the whole-tree scan");
  checks.expect(results[1].epoch_close_speedup >= 5.0,
                "100k dirs / 1% hot: epoch close at least 5x faster");
  checks.expect(results[2].epoch_close_speedup >= 5.0,
                "500k dirs / 1% hot: epoch close at least 5x faster");
  checks.expect(results[3].epoch_close_speedup >= 5.0,
                "2M dirs / 1% hot: epoch close at least 5x faster");
  checks.expect(results[1].auth_speedup >= 1.0,
                "100k dirs: cached authority lookups no slower than the "
                "pin-chain walk");
  checks.expect(results[1].live_candidates <= 2 * results[1].hot_dirs,
                "live-set filter keeps the candidate set near the hot set");
  // Wall-clock parallel speedup needs real cores; time-sliced threads on
  // small hosts make the ratio noise, so the gate only arms at >= 4.
  if (std::thread::hardware_concurrency() >= 4) {
    checks.expect(results[3].shard_rows.back().speedup_vs_1 >= 2.0,
                  "2M dirs: epoch close scales at least 2x from 1 to 4 "
                  "shards");
  } else {
    std::cout << "[SHAPE-CHECK] shard-scaling gate skipped: "
              << std::thread::hardware_concurrency()
              << " hardware threads (< 4)\n";
  }
  return bench::finish(checks);
}
