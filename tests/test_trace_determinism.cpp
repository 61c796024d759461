// The flight recorder must never break the repo's core determinism
// property: two runs of the same seeded scenario produce byte-identical
// trace dumps.
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/zipf.h"
#include "fs/builder.h"
#include "sim/json_export.h"
#include "sim/scenario.h"
#include "workloads/zipf_read.h"

namespace lunule::sim {
namespace {

ScenarioConfig small_config(BalancerKind balancer, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kZipf;
  cfg.balancer = balancer;
  cfg.n_clients = 20;
  cfg.scale = 0.05;
  cfg.max_ticks = 200;
  cfg.seed = seed;
  cfg.capture_trace = true;
  return cfg;
}

TEST(TraceDeterminism, LunuleTraceIsByteIdenticalAcrossRuns) {
  const ScenarioConfig cfg = small_config(BalancerKind::kLunule, 42);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  // The dump actually contains flight-recorder content, not just shell.
  EXPECT_NE(a.trace_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"events\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("cluster.ops_served"), std::string::npos);
}

TEST(TraceDeterminism, VanillaTraceIsByteIdenticalAcrossRuns) {
  const ScenarioConfig cfg = small_config(BalancerKind::kVanilla, 42);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(TraceDeterminism, DifferentSeedsProduceDifferentTraces) {
  const ScenarioResult a = run_scenario(small_config(BalancerKind::kLunule, 1));
  const ScenarioResult b = run_scenario(small_config(BalancerKind::kLunule, 2));
  EXPECT_NE(a.trace_json, b.trace_json);
}

// FNV-1a 64-bit (the same digest lunule_proptest prints on oracle
// failures, copied here so a tier1 test needs no extra library).
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Pinned trace digest: the proxy knob must be dark silicon when disabled.
// The constant below is the trace digest of this exact scenario from the
// build *before* the proxy tier existed; a disabled-proxy run (the
// default) must still hash to it.  If an intentional trace-format change
// moves this value, re-pin it together with the change that moved it —
// never because proxy code started leaking into disabled runs.
TEST(TraceDeterminism, ProxyDisabledTraceMatchesPinnedPreProxyDigest) {
  ScenarioConfig cfg = small_config(BalancerKind::kLunule, 42);
  ASSERT_FALSE(cfg.proxy.enabled);
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  EXPECT_EQ(fnv1a64(r.trace_json), 0x51e3506e66756352ull);
  EXPECT_EQ(r.proxy.reads_absorbed, 0u);
  EXPECT_EQ(r.proxy.lease_grants, 0u);
  EXPECT_EQ(r.proxy.promotions, 0u);
}

// Pinned trace digest, async edition: with async_mode off (the default,
// and the journal disabled as in every small_config run) the async journal
// path must be dark silicon too — the same pre-proxy digest still holds
// because neither PR's knobs may perturb a disabled run.  dep_seq stamping
// runs in every mode but lives outside the trace, so it must not move this
// value either.
TEST(TraceDeterminism, AsyncDisabledTraceMatchesPinnedDigest) {
  ScenarioConfig cfg = small_config(BalancerKind::kLunule, 42);
  ASSERT_FALSE(cfg.journal.enabled);
  ASSERT_FALSE(cfg.journal.async_mode);
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  EXPECT_EQ(fnv1a64(r.trace_json), 0x51e3506e66756352ull);
  EXPECT_EQ(r.journal.async_acked, 0u);
  EXPECT_EQ(r.journal.async_background_charges, 0u);
  EXPECT_EQ(r.journal.async_throttle_ticks, 0u);
  EXPECT_EQ(r.faults.acked_lost_entries, 0u);
  EXPECT_EQ(r.faults.dependency_violations, 0u);
}

// True when one Lunule decision (one exporter in one epoch) selected units
// of two different directories.  Path 1 takes a single unit and path 2
// takes fragments of the one directory it split, so only the minimal-set
// path (3) produces this.
bool has_multi_dir_selection(const std::string& trace_json) {
  const JsonValue trace = JsonValue::parse(trace_json);
  std::map<std::pair<std::int64_t, std::int64_t>, std::set<std::int64_t>>
      dirs_per_decision;
  for (const JsonValue& e :
       trace.at("components").at("selector").at("events").as_array()) {
    if (e.at("kind").as_string() != "selection") continue;
    dirs_per_decision[{e.at("epoch").as_int(), e.at("a").as_int()}].insert(
        e.at("n0").as_int());
  }
  for (const auto& [decision, dirs] : dirs_per_decision) {
    if (dirs.size() >= 2) return true;
  }
  return false;
}

// Pinned trace digest for the container-tenant shape (2,000 eight-file
// directories with Zipf popularity and a create tail): every Lunule
// decision scores a large candidate set and at least one takes the
// minimal-set path.  The constant is this scenario's digest from the build
// in which the selector still sorted every scored candidate; the
// selector's sort-free paths must reproduce it.
TEST(TraceDeterminism, TenantLunuleTraceMatchesPinnedDigest) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kTenant;
  cfg.balancer = BalancerKind::kLunule;
  cfg.n_mds = 8;
  cfg.n_clients = 80;
  cfg.max_ticks = 200;
  cfg.sharded_ticks = 1;
  cfg.seed = 7;
  cfg.capture_trace = true;
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  EXPECT_TRUE(has_multi_dir_selection(r.trace_json));
  EXPECT_EQ(fnv1a64(r.trace_json), 0x0e15d31dc7ca38f0ull);
}

// True when some component's event ring holds an event of `kind`.
bool has_event(const std::string& trace_json, std::string_view kind) {
  const JsonValue trace = JsonValue::parse(trace_json);
  for (const auto& [name, component] : trace.at("components").as_object()) {
    for (const JsonValue& e : component.at("events").as_array()) {
      if (e.at("kind").as_string() == kind) return true;
    }
  }
  return false;
}

// Pinned trace digests for the balancers that share Lunule's pipeline or
// CephFS's heat-share walk.  The constants are these scenarios' digests
// from the build in which Lunule-Hash was a class of its own and Vanilla,
// GreedySpill and Lunule-Light each wrote out their own heat walk; the
// shared code must reproduce them.  Each run must also migrate and leave a
// decision or heat-selection event, so the digest pins a selection order
// rather than an idle run.
void expect_pinned_digest(const ScenarioConfig& cfg, std::uint64_t digest) {
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  EXPECT_GT(r.migrations_completed, 0u);
  EXPECT_TRUE(has_event(r.trace_json, "decision") ||
              has_event(r.trace_json, "heat_selection"));
  EXPECT_EQ(fnv1a64(r.trace_json), digest);
}

TEST(TraceDeterminism, VanillaTraceMatchesPinnedDigest) {
  expect_pinned_digest(small_config(BalancerKind::kVanilla, 42),
                       0x26f556a9d66faa62ull);
}

TEST(TraceDeterminism, GreedySpillTraceMatchesPinnedDigest) {
  expect_pinned_digest(small_config(BalancerKind::kGreedySpill, 42),
                       0x2c15b7f765395a33ull);
}

TEST(TraceDeterminism, LunuleLightTraceMatchesPinnedDigest) {
  expect_pinned_digest(small_config(BalancerKind::kLunuleLight, 42),
                       0x95b7ac079393297full);
}

TEST(TraceDeterminism, LunuleHashTraceMatchesPinnedDigest) {
  ScenarioConfig cfg = small_config(BalancerKind::kLunuleHash, 42);
  cfg.workload = WorkloadKind::kWeb;
  cfg.n_clients = 60;  // 20 Web clients never push IF over the threshold
  expect_pinned_digest(cfg, 0xc7c5b598fe1dd6a0ull);
}

// Pinned digests for journaled creates on the sharded engine (MDtest
// creates into per-client directories, 4 MDSs, S = 1).  Lunule splits the
// hot directories and pins fragments of them, so the run covers both
// create paths: a create into a directory with a pinned fragment is served
// by the serial deferred pass, every other create runs in place on its
// rank's stream.  The constants are this run's trace and result digests
// from the build in which rank streams deferred each created file's inode
// tally and placement census to the merge; creating in place must
// reproduce both.
TEST(TraceDeterminism, JournaledMdLunuleTraceMatchesPinnedDigest) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kMd;
  cfg.balancer = BalancerKind::kLunule;
  cfg.n_mds = 4;
  cfg.n_clients = 40;
  cfg.max_ticks = 200;
  cfg.journal.enabled = true;
  cfg.sharded_ticks = 1;
  cfg.seed = 7;
  cfg.capture_trace = true;
  const std::unique_ptr<Simulation> sim = make_scenario(cfg);
  sim->run();
  const ScenarioResult r = result_of(*sim);

  EXPECT_GE(sim->cluster().trace().counters().value("cluster.dirfrag_splits"),
            1u);
  const fs::NamespaceTree& tree = sim->tree();
  bool frag_pinned = false;
  for (DirId d = 0; d < tree.dir_count() && !frag_pinned; ++d) {
    frag_pinned = tree.dir(d).frag_pin_count() > 0;
  }
  EXPECT_TRUE(frag_pinned);
  EXPECT_EQ(fnv1a64(r.trace_json), 0x8dc78a70a2e39d1dull);
  EXPECT_EQ(fnv1a64(to_json(r)), 0x6c10441aa1f910b3ull);
}

// Pinned digests for a hand-built simulation: the caller builds the
// namespace, the clients and a mid-run expansion, and the engine comes from
// the config alone (3 MDSs, 40 open-ended Zipf clients in private
// directories, a fourth rank added at tick 150).  The constants are this
// run's trace and result digests from the build in which a hand-built
// simulation set its ClusterParams, engine options and IF parameters
// itself; building it from the config must reproduce both.
TEST(TraceDeterminism, HandBuiltExpansionMatchesPinnedDigest) {
  constexpr std::uint32_t kClients = 40;
  constexpr std::uint32_t kFiles = 200;
  ScenarioConfig cfg;
  cfg.n_mds = 3;
  cfg.n_clients = kClients;
  cfg.max_ticks = 300;
  cfg.stop_when_done = false;
  cfg.capture_trace = true;
  auto tree = std::make_unique<fs::NamespaceTree>();
  const auto dirs = fs::build_private_dirs(*tree, "zipf", kClients, kFiles);
  Simulation sim(cfg, std::move(tree));
  auto sampler = std::make_shared<ZipfSampler>(
      kFiles, zipf_exponent_for(0.2, 0.8, kFiles));
  Rng rng(cfg.seed);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    sim.add_client(std::make_unique<workloads::Client>(
        c, workloads::ClientParams{.max_ops_per_tick = 150.0},
        std::make_unique<workloads::ZipfReadProgram>(
            dirs[c], kFiles, /*requests=*/1u << 30, sampler, rng.fork(c))));
  }
  sim.schedule(150, [](Simulation& s) { s.cluster().add_server(); });
  sim.run();

  const ScenarioResult r = result_of(sim);
  ASSERT_EQ(r.total_served_per_mds.size(), 4u);
  EXPECT_GT(r.total_served_per_mds[3], 0u);  // the new rank took load
  EXPECT_EQ(fnv1a64(r.trace_json), 0xfda11c782a84fa9full);
  EXPECT_EQ(fnv1a64(to_json(r)), 0x9e09cf7fab532cacull);
}

// Pinned digests for the flash-crowd shape behind a proxy tier (3 MDSs,
// 8 clients, a Lunule balancer, the tier promoting at 10% of one rank's
// capacity): the celebrity directory's files are Zipf ranks scattered
// across file indices, and the tier absorbs part of the crowd.  The
// constants are this run's trace and result digests from the build in
// which the scatter was `mix64(rank) % hot_files`.  The celebrity
// directory stays one unsplit fragment, so these digests do not show
// which of its files a draw picks;
// `Zipf.ScatteredProgramsMatchTheModuloFormula` pins that, op by op.
TEST(TraceDeterminism, FlashCrowdProxyTraceMatchesPinnedDigest) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kFlashCrowd;
  cfg.balancer = BalancerKind::kLunule;
  cfg.n_mds = 3;
  cfg.n_clients = 8;
  cfg.scale = 0.02;
  cfg.max_ticks = 400;
  cfg.seed = 99;
  cfg.proxy.enabled = true;
  cfg.proxy.lease_ticks = 20;
  cfg.proxy.promote_threshold_iops = cfg.mds_capacity_iops * 0.1;
  cfg.proxy.max_promoted = 4;
  cfg.capture_trace = true;
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  EXPECT_GT(r.proxy.reads_absorbed, 0u);
  EXPECT_EQ(fnv1a64(r.trace_json), 0x22ffe5f4642934a8ull);
  EXPECT_EQ(fnv1a64(to_json(r)), 0x5a87400ab0185c41ull);
}

}  // namespace
}  // namespace lunule::sim
