// Unit coverage for the property-testing subsystem itself: the generator's
// determinism and coverage, the oracle registry, the shrinker (including the
// acceptance-criterion synthetic bug), and repro round-trips.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "common/json.h"
#include "faults/fault_plan.h"
#include "proptest/generator.h"
#include "proptest/oracles.h"
#include "proptest/repro.h"
#include "proptest/runner.h"
#include "proptest/shrink.h"
#include "sim/scenario.h"
#include "sim/scenario_json.h"

namespace lunule::proptest {
namespace {

// ---------------------------------------------------------------- generator

TEST(ProptestGenerator, SameCoordinatesProduceIdenticalConfigs) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::string a = sim::scenario_config_to_json(generate_config(42, i));
    const std::string b = sim::scenario_config_to_json(generate_config(42, i));
    EXPECT_EQ(a, b) << "index " << i;
  }
}

TEST(ProptestGenerator, IndicesAreIndependentStreams) {
  // Distinct indices must not collapse onto one another.
  std::set<std::string> distinct;
  for (std::uint64_t i = 0; i < 20; ++i) {
    distinct.insert(sim::scenario_config_to_json(generate_config(7, i)));
  }
  EXPECT_EQ(distinct.size(), 20u);
}

TEST(ProptestGenerator, GeneratedConfigsAreStructurallyValid) {
  for (std::uint64_t i = 0; i < 100; ++i) {
    const sim::ScenarioConfig cfg = generate_config(3, i);
    EXPECT_GE(cfg.n_mds, 1u);
    EXPECT_LE(cfg.n_mds, 5u);
    EXPECT_GE(cfg.n_clients, 2u);
    EXPECT_GE(cfg.max_ticks, 8 * cfg.epoch_ticks);
    EXPECT_GT(cfg.scale, 0.0);
    EXPECT_NO_THROW(cfg.faults.validate(cfg.n_mds, cfg.max_ticks));
  }
}

TEST(ProptestGenerator, CoversEveryWorkloadAndBalancer) {
  std::set<sim::WorkloadKind> workloads;
  std::set<sim::BalancerKind> balancers;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const sim::ScenarioConfig cfg = generate_config(1, i);
    workloads.insert(cfg.workload);
    balancers.insert(cfg.balancer);
  }
  EXPECT_EQ(workloads.size(), 8u);  // Table 1's five + Mixed + the two
                                    // hotspot families (docs/CACHING.md)
  EXPECT_EQ(balancers.size(), 7u);
}

// ------------------------------------------------------------------ oracles

TEST(ProptestOracles, RegistryIsConsistent) {
  const auto oracles = all_oracles();
  EXPECT_EQ(oracles.size(), 12u);
  for (const Oracle& o : oracles) {
    EXPECT_EQ(find_oracle(o.name), &o);
    EXPECT_FALSE(o.description.empty());
    EXPECT_NE(o.check, nullptr);
  }
  EXPECT_EQ(find_oracle("no_such_oracle"), nullptr);
}

TEST(ProptestOracles, Digest64MatchesFnv1aBasis) {
  EXPECT_EQ(digest64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(digest64("a"), digest64("b"));
  EXPECT_EQ(digest64("abc"), digest64("abc"));
}

sim::ScenarioConfig tiny_config() {
  sim::ScenarioConfig cfg;
  cfg.n_mds = 2;
  cfg.n_clients = 2;
  cfg.scale = 0.02;
  cfg.epoch_ticks = 5;
  cfg.max_ticks = 60;
  cfg.seed = 99;
  return cfg;
}

TEST(ProptestOracles, DeterminismOraclePassesOnTinyConfig) {
  const Oracle* o = find_oracle("same_seed_determinism");
  ASSERT_NE(o, nullptr);
  const OracleResult r = o->check(tiny_config());
  EXPECT_TRUE(r.passed) << r.message;
  EXPECT_FALSE(r.skipped);
}

TEST(ProptestOracles, SingleMdsOraclePassesOnTinyConfig) {
  const Oracle* o = find_oracle("single_mds_no_migrations");
  ASSERT_NE(o, nullptr);
  const OracleResult r = o->check(tiny_config());
  EXPECT_TRUE(r.passed) << r.message;
}

TEST(ProptestOracles, RankRelabelSkipsOnSingleMds) {
  const Oracle* o = find_oracle("rank_relabel_invariance");
  ASSERT_NE(o, nullptr);
  sim::ScenarioConfig cfg = tiny_config();
  cfg.n_mds = 1;
  EXPECT_TRUE(o->check(cfg).skipped);
}

// ----------------------------------------------------------------- shrinker

/// The acceptance-criterion synthetic bug: "fails whenever the plan carries
/// a crash event".  Structural, so the shrinker's work is fully observable.
bool has_crash(const sim::ScenarioConfig& cfg) {
  for (const faults::FaultEvent& e : cfg.faults.events) {
    if (e.kind == faults::FaultKind::kCrash) return true;
  }
  return false;
}

TEST(ProptestShrink, SyntheticBugShrinksToMinimalRepro) {
  sim::ScenarioConfig big;
  big.workload = sim::WorkloadKind::kMixed;
  big.balancer = sim::BalancerKind::kGreedySpill;
  big.n_mds = 5;
  big.n_clients = 8;
  big.max_ticks = 400;
  big.epoch_ticks = 10;
  big.data_enabled = true;
  big.journal.enabled = true;
  big.sibling_credit_prob = 0.3;
  big.faults.slow(1, 40, 30, 0.5)
      .crash(2, 120, 25)
      .journal_stall(0, 200, 15)
      .abort_migrations(250);
  ASSERT_TRUE(has_crash(big));

  ShrinkStats stats;
  const sim::ScenarioConfig minimal = shrink_config(big, has_crash, &stats);

  EXPECT_TRUE(has_crash(minimal));
  EXPECT_NO_THROW(minimal.faults.validate(minimal.n_mds, minimal.max_ticks));
  // ISSUE acceptance bar: <= 3 MDS, <= 200 ticks, <= 1 fault event.
  EXPECT_LE(minimal.n_mds, 3u);
  EXPECT_LE(minimal.max_ticks, 200);
  EXPECT_LE(minimal.faults.events.size(), 1u);
  // The incidental knobs fall back to defaults.
  EXPECT_FALSE(minimal.data_enabled);
  EXPECT_FALSE(minimal.journal.enabled);
  EXPECT_GT(stats.candidates_accepted, 0);
  EXPECT_GE(stats.passes, 1);
}

TEST(ProptestShrink, AlwaysFailingPredicateReachesTheFloor) {
  sim::ScenarioConfig big = generate_config(11, 0);
  big.n_mds = 4;
  big.n_clients = 6;
  const sim::ScenarioConfig minimal = shrink_config(
      big, [](const sim::ScenarioConfig&) { return true; }, nullptr);
  EXPECT_EQ(minimal.n_mds, 1u);
  EXPECT_EQ(minimal.n_clients, 1u);
  EXPECT_EQ(minimal.workload, sim::WorkloadKind::kZipf);
  EXPECT_EQ(minimal.balancer, sim::BalancerKind::kLunule);
  EXPECT_TRUE(minimal.faults.empty());
  EXPECT_EQ(minimal.max_ticks, 2 * minimal.epoch_ticks);
}

TEST(ProptestShrink, ResultAlwaysSatisfiesThePredicate) {
  // Non-monotone predicate: only configs with >= 2 MDS fail.  The shrinker
  // must refuse the n_mds=1 candidate and stop at 2.
  const auto needs_two = [](const sim::ScenarioConfig& c) {
    return c.n_mds >= 2;
  };
  sim::ScenarioConfig big = generate_config(12, 3);
  big.n_mds = 5;
  const sim::ScenarioConfig minimal = shrink_config(big, needs_two, nullptr);
  EXPECT_TRUE(needs_two(minimal));
  EXPECT_EQ(minimal.n_mds, 2u);
}

// -------------------------------------------------------------------- repro

Repro sample_repro() {
  Repro r;
  r.oracle = "single_mds_no_migrations";
  r.generator_seed = 17;
  r.generator_index = 4;
  r.message = "GreedySpill migrated 3 directories with one MDS";
  r.config = generate_config(17, 4);
  return r;
}

TEST(ProptestRepro, JsonRoundTripPreservesEveryField) {
  const Repro a = sample_repro();
  const Repro b = repro_from_json(repro_to_json(a));
  EXPECT_EQ(b.oracle, a.oracle);
  EXPECT_EQ(b.generator_seed, a.generator_seed);
  EXPECT_EQ(b.generator_index, a.generator_index);
  EXPECT_EQ(b.message, a.message);
  EXPECT_EQ(sim::scenario_config_to_json(b.config),
            sim::scenario_config_to_json(a.config));
}

TEST(ProptestRepro, SaveLoadSaveIsByteIdentical) {
  const std::string json = repro_to_json(sample_repro());
  EXPECT_EQ(repro_to_json(repro_from_json(json)), json);
}

TEST(ProptestRepro, FileRoundTrip) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "proptest_repro.json";
  save_repro_file(path.string(), sample_repro());
  const Repro loaded = load_repro_file(path.string());
  EXPECT_EQ(loaded.oracle, "single_mds_no_migrations");
  std::filesystem::remove(path);
}

TEST(ProptestRepro, RejectsUnknownKeysAndWrongFormat) {
  const std::string good = repro_to_json(sample_repro());
  std::string typo = good;
  typo.insert(1, "\"orcale\": \"x\", ");
  EXPECT_ANY_THROW(repro_from_json(typo));
  std::string wrong_format = good;
  const auto pos = wrong_format.find("lunule-proptest-repro-v1");
  ASSERT_NE(pos, std::string::npos);
  wrong_format.replace(pos, 24, "lunule-proptest-repro-v9");
  EXPECT_ANY_THROW(repro_from_json(wrong_format));

  // A generator seed past 2^64 - 1 is refused, not wrapped.
  const std::string seed = R"("generator_seed":"17")";
  const auto at = good.find(seed);
  ASSERT_NE(at, std::string::npos);
  std::string max_seed = good;
  max_seed.replace(at, seed.size(),
                   R"("generator_seed":"18446744073709551615")");
  EXPECT_EQ(repro_from_json(max_seed).generator_seed, ~std::uint64_t{0});
  std::string overflow = good;
  overflow.replace(at, seed.size(),
                   R"("generator_seed":"18446744073709551616")");
  EXPECT_THROW(static_cast<void>(repro_from_json(overflow)), JsonError);
}

// ------------------------------------------------------------------- runner

TEST(ProptestRunner, ReplayAcceptsAFixedRepro) {
  // A corpus entry documents a *fixed* bug, so its oracle passes today.
  Repro r;
  r.oracle = "single_mds_no_migrations";
  r.message = "historical failure message";
  r.config = tiny_config();
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "proptest_replay.json";
  save_repro_file(path.string(), r);
  std::ostringstream log;
  EXPECT_EQ(replay_file(path.string(), log), 0) << log.str();
  std::filesystem::remove(path);
}

TEST(ProptestRunner, ReplayDirPassesWhenEmpty) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "proptest_empty_corpus";
  std::filesystem::create_directories(dir);
  std::ostringstream log;
  EXPECT_EQ(replay_dir(dir.string(), log), 0);
  std::filesystem::remove_all(dir);
}

TEST(ProptestRunner, RunFuzzSmallCampaignIsClean) {
  RunOptions options;
  options.seed = 5;
  options.count = 2;
  options.out_dir.clear();  // nothing should be written anyway
  std::ostringstream log;
  const RunSummary summary = run_fuzz(options, log);
  EXPECT_EQ(summary.configs, 2u);
  EXPECT_EQ(summary.failures, 0u) << log.str();
  EXPECT_TRUE(summary.repro_paths.empty());
}

}  // namespace
}  // namespace lunule::proptest
