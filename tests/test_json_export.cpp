// Tests for JSON serialization of scenario results.
#include "sim/json_export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/json.h"

namespace lunule::sim {
namespace {

TEST(JsonWriter, ObjectsArraysAndSeparators) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("a", std::uint64_t{1});
  w.field("b", std::string_view("x"));
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":"x","list":[1,2]})");
}

TEST(JsonWriter, EscapesStrings) {
  std::ostringstream os;
  JsonWriter w(os);
  w.value(std::string_view("a\"b\\c\nd\te"));
  EXPECT_EQ(os.str(), R"("a\"b\\c\nd\te")");
}

TEST(JsonWriter, EscapesControlCharacters) {
  std::ostringstream os;
  JsonWriter w(os);
  const char raw[] = {'x', 0x01, 'y', 0};
  w.value(std::string_view(raw));
  EXPECT_EQ(os.str(), "\"x\\u0001y\"");
}

TEST(JsonWriter, NumbersAndBooleans) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(1.5);
  w.value(std::int64_t{-7});
  w.value(true);
  w.value(false);
  w.end_array();
  EXPECT_EQ(os.str(), "[1.5,-7,true,false]");
}

TEST(JsonExport, SerializesAScenarioResult) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kZipf;
  cfg.balancer = BalancerKind::kLunule;
  cfg.n_clients = 6;
  cfg.scale = 0.02;
  cfg.max_ticks = 150;
  cfg.client_rate = 50.0;
  cfg.mds_capacity_iops = 200.0;
  const ScenarioResult r = run_scenario(cfg);
  const std::string json = to_json(r);

  // Structural sanity: balanced braces/brackets, expected keys present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  for (const char* k :
       {"\"workload\":\"Zipf\"", "\"balancer\":\"Lunule\"",
        "\"per_mds_iops\":", "\"if_series\":", "\"jct_seconds\":",
        "\"total_served\":", "\"mean_if\":"}) {
    EXPECT_NE(json.find(k), std::string::npos) << k;
  }
  // One series object per MDS.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"MDS-"); pos != std::string::npos;
       pos = json.find("\"MDS-", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 5u);
}

/// Every member of the four component totals structs that a result
/// document exports, keyed by its JSON name.  The names are spelled out
/// here, not taken from the writer's key lists, so a key dropped from a
/// list or renamed fails the lookup below.
using Exported = std::variant<std::uint64_t, double>;
struct ExportedTotal {
  std::string_view key;
  Exported (*value)(const ScenarioResult&);
};

template <typename T>
Exported exported(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<double>(v);
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

using R = ScenarioResult;
const ExportedTotal kExportedTotals[] = {
    {"faults_injected", [](const R& r) { return exported(r.faults.applied); }},
    {"faults_skipped", [](const R& r) { return exported(r.faults.skipped); }},
    {"takeover_subtrees",
     [](const R& r) { return exported(r.faults.subtrees); }},
    {"takeover_inodes", [](const R& r) { return exported(r.faults.inodes); }},
    {"fault_migration_aborts",
     [](const R& r) { return exported(r.faults.aborted_migrations); }},
    {"replay_seconds",
     [](const R& r) { return exported(r.faults.replay_seconds); }},
    {"replayed_entries",
     [](const R& r) { return exported(r.faults.replayed_entries); }},
    {"lost_entries",
     [](const R& r) { return exported(r.faults.lost_entries); }},
    {"journaled_takeover_subtrees",
     [](const R& r) { return exported(r.faults.journaled_subtrees); }},
    {"journal_acked_lost_entries",
     [](const R& r) { return exported(r.faults.acked_lost_entries); }},
    {"journal_dependency_violations",
     [](const R& r) { return exported(r.faults.dependency_violations); }},
    {"journal_entries_appended",
     [](const R& r) { return exported(r.journal.appends); }},
    {"journal_bytes_written",
     [](const R& r) { return exported(r.journal.bytes_written); }},
    {"journal_flushes", [](const R& r) { return exported(r.journal.flushes); }},
    {"journal_segments_trimmed",
     [](const R& r) { return exported(r.journal.segments_trimmed); }},
    {"journal_async_acked",
     [](const R& r) { return exported(r.journal.async_acked); }},
    {"journal_async_background_charges",
     [](const R& r) { return exported(r.journal.async_background_charges); }},
    {"journal_async_background_ops",
     [](const R& r) { return exported(r.journal.async_background_ops); }},
    {"journal_async_throttle_ticks",
     [](const R& r) { return exported(r.journal.async_throttle_ticks); }},
    {"scale_up_events",
     [](const R& r) { return exported(r.elasticity.activations); }},
    {"drains_started",
     [](const R& r) { return exported(r.elasticity.drains_started); }},
    {"scale_down_events",
     [](const R& r) { return exported(r.elasticity.retirements); }},
    {"proxy_reads_absorbed",
     [](const R& r) { return exported(r.proxy.reads_absorbed); }},
    {"proxy_lease_grants",
     [](const R& r) { return exported(r.proxy.lease_grants); }},
    {"proxy_lease_recalls",
     [](const R& r) { return exported(r.proxy.lease_recalls); }},
    {"proxy_lease_expiries",
     [](const R& r) { return exported(r.proxy.lease_expiries); }},
    {"proxy_promotions",
     [](const R& r) { return exported(r.proxy.promotions); }},
    {"proxy_demotions", [](const R& r) { return exported(r.proxy.demotions); }},
};

/// Integers must round-trip exactly; doubles print with %.6g.
void expect_totals_exported(const ScenarioResult& r) {
  const JsonValue doc = JsonValue::parse(to_json(r));
  for (const ExportedTotal& t : kExportedTotals) {
    const JsonValue* v = doc.find(t.key);
    ASSERT_NE(v, nullptr) << t.key;
    const Exported want = t.value(r);
    if (const auto* n = std::get_if<std::uint64_t>(&want)) {
      EXPECT_EQ(v->as_uint(), *n) << t.key;
    } else {
      const double d = std::get<double>(want);
      EXPECT_NEAR(v->as_double(), d, std::abs(d) * 1e-5 + 1e-9) << t.key;
    }
  }
}

TEST(JsonExport, RoundTripsReplayAndJournalMetrics) {
  // A sync-journal crash run.
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kZipf;
  cfg.balancer = BalancerKind::kLunule;
  cfg.n_clients = 12;
  cfg.scale = 0.2;
  cfg.max_ticks = 300;
  cfg.journal.enabled = true;
  cfg.faults.crash(0, 60, 80);
  const ScenarioResult sync_crash = run_scenario(cfg);
  EXPECT_GT(sync_crash.journal.bytes_written, 0u);
  EXPECT_GT(sync_crash.faults.replay_seconds, 0.0);
  expect_totals_exported(sync_crash);
  const JsonValue doc = JsonValue::parse(to_json(sync_crash));
  const JsonValue* retries = doc.find("migration_retries_exhausted");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->as_uint(), sync_crash.migration_retries_exhausted);

  // Async journal under a stall, an elastic pool and the proxy tier: every
  // totals struct carries non-zero members.
  cfg.workload = WorkloadKind::kMixed;
  cfg.n_mds = 4;
  cfg.n_clients = 24;
  cfg.scale = 0.1;
  cfg.max_ticks = 400;
  cfg.journal.async_mode = true;
  cfg.journal.flush_interval_ticks = 4;
  cfg.journal.segment_entries = 64;
  cfg.journal.async_high_water_entries = 8;
  cfg.faults = {};
  cfg.faults.crash(1, 60, 80);
  cfg.faults.journal_stall(0, 100, 30);
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.initial_active = 2;
  cfg.autoscaler.min_ranks = 1;
  cfg.autoscaler.hysteresis_epochs = 1;
  cfg.autoscaler.cooldown_epochs = 1;
  cfg.proxy.enabled = true;
  cfg.proxy.lease_ticks = 20;
  cfg.proxy.promote_threshold_iops = 250.0;
  cfg.proxy.max_promoted = 4;
  const ScenarioResult async_all = run_scenario(cfg);
  EXPECT_GT(async_all.faults.inodes, 0u);
  EXPECT_GT(async_all.journal.segments_trimmed, 0u);
  EXPECT_GT(async_all.journal.async_throttle_ticks, 0u);
  EXPECT_GT(async_all.elasticity.drains_started, 0u);
  EXPECT_GT(async_all.proxy.lease_expiries, 0u);
  EXPECT_GT(async_all.proxy.demotions, 0u);
  expect_totals_exported(async_all);
}

TEST(JsonExport, DeterministicForSameScenario) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kMd;
  cfg.balancer = BalancerKind::kVanilla;
  cfg.n_clients = 4;
  cfg.max_ticks = 100;
  cfg.client_rate = 40.0;
  cfg.mds_capacity_iops = 200.0;
  EXPECT_EQ(to_json(run_scenario(cfg)), to_json(run_scenario(cfg)));
}

}  // namespace
}  // namespace lunule::sim
