// Equivalence suite for the deterministic sharded tick engine.
//
// The sharded engine partitions each tick's client work by current MDS
// authority, runs the per-rank streams on a worker pool, and merges the
// escrowed effects in fixed rank order.  That merge discipline is the
// whole determinism story, so the contract under test is exact: for every
// scenario, sharded_ticks = 1, 2 and 4 must produce a byte-identical
// flight-recorder trace and identical headline results.  (S = 1 is the
// canonical schedule; S >= 2 only changes how many workers execute it.)
// The matrix covers workloads x balancers x faults x journal x
// replication, and a sweep over the committed proptest repro corpus
// replays every shrunk once-suspect scenario through the same assertion.
// Under LUNULE_VALIDATE=1 (scripts/check.sh) the invariant checker also
// audits the hot-path caches — authority, statistics clock, active-set
// expiry — at every epoch of every run here.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "proptest/repro.h"
#include "sim/scenario.h"

namespace lunule {
namespace {

sim::ScenarioResult run_with(sim::ScenarioConfig cfg, int shards) {
  cfg.capture_trace = true;
  cfg.sharded_ticks = shards;
  return sim::run_scenario(cfg);
}

void expect_same(const sim::ScenarioResult& a, const sim::ScenarioResult& b,
                 int shards_b) {
  SCOPED_TRACE("sharded_ticks=1 vs " + std::to_string(shards_b));
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.total_served, b.total_served);
  EXPECT_EQ(a.total_forwards, b.total_forwards);
  EXPECT_EQ(a.migrated_total, b.migrated_total);
  EXPECT_EQ(a.migrations_completed, b.migrations_completed);
  EXPECT_EQ(a.clients_done, b.clients_done);
  EXPECT_EQ(a.end_tick, b.end_tick);
  EXPECT_EQ(a.total_served_per_mds, b.total_served_per_mds);
  EXPECT_DOUBLE_EQ(a.metrics.mean_if(), b.metrics.mean_if());
  EXPECT_DOUBLE_EQ(a.metrics.peak_aggregate_iops(),
                   b.metrics.peak_aggregate_iops());
  EXPECT_EQ(a.faults.subtrees, b.faults.subtrees);
  EXPECT_EQ(a.faults.replayed_entries, b.faults.replayed_entries);
}

/// Runs `cfg` at 1, 2 and 4 shards and asserts the traces are
/// byte-identical and the headline results agree.
void expect_shard_equivalent(const sim::ScenarioConfig& cfg) {
  const sim::ScenarioResult one = run_with(cfg, 1);
  ASSERT_FALSE(one.trace_json.empty());
  expect_same(one, run_with(cfg, 2), 2);
  expect_same(one, run_with(cfg, 4), 4);
}

sim::ScenarioConfig small_config(sim::WorkloadKind w, sim::BalancerKind b) {
  sim::ScenarioConfig cfg;
  cfg.workload = w;
  cfg.balancer = b;
  cfg.n_clients = 12;
  cfg.scale = 0.15;
  cfg.max_ticks = 300;
  cfg.seed = 1234;
  return cfg;
}

TEST(ShardEquivalence, MixedWorkloadLunule) {
  expect_shard_equivalent(
      small_config(sim::WorkloadKind::kMixed, sim::BalancerKind::kLunule));
}

TEST(ShardEquivalence, ZipfVanilla) {
  expect_shard_equivalent(
      small_config(sim::WorkloadKind::kZipf, sim::BalancerKind::kVanilla));
}

TEST(ShardEquivalence, WebGreedySpill) {
  expect_shard_equivalent(
      small_config(sim::WorkloadKind::kWeb, sim::BalancerKind::kGreedySpill));
}

TEST(ShardEquivalence, MdLunuleHashWithReplication) {
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kMd, sim::BalancerKind::kLunuleHash);
  cfg.replicate_threshold_iops = 30.0;
  expect_shard_equivalent(cfg);
}

TEST(ShardEquivalence, FaultyZipfLunule) {
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kZipf, sim::BalancerKind::kLunule);
  cfg.faults.crash(0, 60, 80).slow(2, 150, 40, 0.5).abort_migrations(100);
  expect_shard_equivalent(cfg);
}

TEST(ShardEquivalence, JournaledCnnLunuleWithStallAndCrash) {
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kCnn, sim::BalancerKind::kLunule);
  cfg.journal.enabled = true;
  cfg.faults.journal_stall(1, 40, 30).crash(1, 90, 60);
  expect_shard_equivalent(cfg);
}

TEST(ShardEquivalence, JournaledMdLunuleCreates) {
  // Journaled creates, in place on the rank streams and, into directories
  // with pinned fragments, in the deferred pass.
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kMd;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_mds = 4;
  cfg.n_clients = 40;
  cfg.max_ticks = 200;
  cfg.journal.enabled = true;
  cfg.seed = 7;
  expect_shard_equivalent(cfg);
}

TEST(ShardEquivalence, TenantLunuleReadsBesideInPlaceCreates) {
  // Tenant directories take lookups and creates alike, so one rank's
  // stream grows a directory's file table in place while clients in the
  // other streams hold ops on that directory.  Many clients over few
  // tenants make those meetings frequent: under TSan with libstdc++
  // assertions (the CI build), a stream that reads another rank's file
  // table, say to prefetch before its rank check, is reported here.
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kTenant, sim::BalancerKind::kLunule);
  cfg.n_clients = 40;
  cfg.scale = 0.02;  // 40 tenants, 1,200 files per client
  expect_shard_equivalent(cfg);
}

TEST(ShardEquivalence, SingleMdsDegeneratesGracefully) {
  // One rank: the whole tick is one shard stream plus the deferred pass.
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kNlp, sim::BalancerKind::kVanilla);
  cfg.n_mds = 1;
  expect_shard_equivalent(cfg);
}

TEST(ShardEquivalence, DataPathClientsAreAllDeferred) {
  // With the data path on, clients regularly block on data ops — those
  // ticks run almost entirely in the serial deferred pass, which must
  // still merge identically.
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kMixed, sim::BalancerKind::kLunule);
  cfg.data_enabled = true;
  expect_shard_equivalent(cfg);
}

// -- Committed corpus sweep ------------------------------------------------

TEST(ShardEquivalence, ReproCorpusIsShardInvariant) {
  const std::filesystem::path dir = LUNULE_CORPUS_DIR;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(files.empty());
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    SCOPED_TRACE(f);
    sim::ScenarioConfig cfg = proptest::load_repro_file(f).config;
    const sim::ScenarioResult one = run_with(cfg, 1);
    ASSERT_FALSE(one.trace_json.empty());
    expect_same(one, run_with(cfg, 2), 2);
  }
}

}  // namespace
}  // namespace lunule
