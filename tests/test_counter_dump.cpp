// Tests for the flight recorder's counter dump: three scenarios that
// between them reach every counter name — an async journal with a stall,
// a crash with recovery and a slow node; an elastic pool behind a proxy
// tier; forced aborts that exhaust the migration retry budget.  Each
// scenario must dump exactly its expected names, and each value must equal
// the accessor of the tally that owns it.
#include "obs/counter_registry.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "sim/scenario.h"
#include "sim/simulation.h"

namespace lunule {
namespace {

using Names = std::set<std::string>;

/// Every counter the dump can carry, read through the accessor of the
/// tally that owns it.  The fail-over sums come from the fault injector's
/// own totals, which add up the same fail-overs independently of the
/// cluster.
std::map<std::string, std::uint64_t> owning_tallies(const sim::Simulation& s) {
  const mds::MdsCluster& c = s.cluster();
  const mds::MigrationEngine& mig = c.migration();
  const mds::MdsCluster::FaultTallies& f = c.fault_tallies();
  const mds::MdsCluster::ElasticityTotals& e = c.elasticity();
  const mds::MdsCluster::JournalTotals j = c.journal_totals();
  const faults::FaultTotals plan = s.fault_injector() != nullptr
                                       ? s.fault_injector()->totals()
                                       : faults::FaultTotals{};
  const proxy::ProxyCacheTier::Totals tier =
      s.proxy_tier() != nullptr ? s.proxy_tier()->totals()
                                : proxy::ProxyCacheTier::Totals{};
  return {
      {"cluster.ops_served", c.total_served()},
      {"cluster.dirfrag_splits", c.dirfrag_splits()},
      {"migration.submitted", mig.migrations_submitted()},
      {"migration.completed", mig.migrations_completed()},
      {"migration.aborted", mig.migrations_aborted()},
      {"migration.retries_exhausted", mig.retries_exhausted()},
      {"migration.migrated_inodes", mig.total_migrated_inodes()},
      {"faults.crashes", f.crashes},
      {"faults.takeover_subtrees", plan.subtrees},
      {"faults.recoveries", f.recoveries},
      {"faults.degradations", f.degradations},
      {"journal.appends", j.appends},
      {"journal.bytes_written", j.bytes_written},
      {"journal.flushes", j.flushes},
      {"journal.segments_trimmed", j.segments_trimmed},
      {"journal.async_acked", j.async_acked},
      {"journal.async_background_charges", j.async_background_charges},
      {"journal.async_throttle_ticks", j.async_throttle_ticks},
      {"journal.replays", f.crashes},
      {"journal.replayed_entries", plan.replayed_entries},
      {"journal.lost_entries", plan.lost_entries},
      {"journal.async_acked_lost", plan.acked_lost_entries},
      {"journal.stalls", f.journal_stalls},
      {"autoscaler.scale_ups", e.activations},
      {"autoscaler.drains", e.drains_started},
      {"autoscaler.scale_downs", e.retirements},
      {"proxy.reads_absorbed", tier.reads_absorbed},
      {"proxy.lease_grants", tier.lease_grants},
      {"proxy.lease_recalls", tier.lease_recalls},
      {"proxy.lease_expiries", tier.lease_expiries},
      {"proxy.promotions", tier.promotions},
      {"proxy.demotions", tier.demotions},
  };
}

/// Runs `cfg` and checks its dump against `expected` and the owning
/// tallies.
void check_dump(const sim::ScenarioConfig& cfg, const Names& expected) {
  const std::unique_ptr<sim::Simulation> s = sim::make_scenario(cfg);
  s->run();
  // Served ops and journal activity read as of the last epoch close; close
  // one more so every counter compares with its tally as it is now.
  s->cluster().close_epoch();

  const obs::Counters dump = s->cluster().trace().counters();
  Names dumped;
  for (const auto& [name, value] : dump.all()) dumped.insert(name);
  EXPECT_EQ(dumped, expected);

  const std::map<std::string, std::uint64_t> tallies = owning_tallies(*s);
  for (const std::string& name : dumped) {
    const auto it = tallies.find(name);
    if (it == tallies.end()) {
      ADD_FAILURE() << name << " has no owning tally";
      continue;
    }
    EXPECT_EQ(dump.value(name), it->second) << name;
  }
}

sim::ScenarioConfig journal_faults_config() {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kMd;  // creates: journal appends, splits
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_mds = 4;
  cfg.n_clients = 40;
  cfg.max_ticks = 300;
  cfg.seed = 7;
  cfg.journal.enabled = true;
  cfg.journal.async_mode = true;
  cfg.journal.segment_entries = 64;
  // A low high-water mark lets the stalled backlog throttle the rank.
  cfg.journal.async_high_water_entries = 64;
  cfg.faults.journal_stall(1, 40, 30).crash(2, 120, 40).slow(0, 60, 80, 0.5);
  return cfg;
}

sim::ScenarioConfig elastic_proxy_config() {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kMixed;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_mds = 4;
  cfg.n_clients = 60;
  cfg.scale = 0.05;
  cfg.max_ticks = 800;
  cfg.seed = 3;
  cfg.proxy.enabled = true;
  cfg.proxy.lease_ticks = 5;
  cfg.proxy.promote_threshold_iops = cfg.mds_capacity_iops * 0.1;
  cfg.proxy.max_promoted = 4;
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.initial_active = 1;
  cfg.autoscaler.min_ranks = 1;
  cfg.autoscaler.hysteresis_epochs = 1;
  cfg.autoscaler.cooldown_epochs = 0;
  return cfg;
}

sim::ScenarioConfig forced_aborts_config() {
  sim::ScenarioConfig cfg;
  cfg.workload = sim::WorkloadKind::kMd;
  cfg.balancer = sim::BalancerKind::kLunule;
  cfg.n_mds = 4;
  cfg.n_clients = 40;
  cfg.max_ticks = 300;
  cfg.seed = 7;
  // One retry, then the next forced abort drops the task for good.
  cfg.migration_max_retries = 1;
  for (Tick t = 40; t < 160; t += 3) cfg.faults.abort_migrations(t);
  return cfg;
}

const Names kJournalFaultsNames = {
    "cluster.dirfrag_splits",
    "cluster.ops_served",
    "faults.crashes",
    "faults.degradations",
    "faults.recoveries",
    "faults.takeover_subtrees",
    "journal.appends",
    "journal.async_acked",
    "journal.async_acked_lost",
    "journal.async_background_charges",
    "journal.async_throttle_ticks",
    "journal.bytes_written",
    "journal.flushes",
    "journal.lost_entries",
    "journal.replayed_entries",
    "journal.replays",
    "journal.segments_trimmed",
    "journal.stalls",
    "migration.completed",
    "migration.migrated_inodes",
    "migration.submitted",
};

const Names kElasticProxyNames = {
    "autoscaler.drains",
    "autoscaler.scale_downs",
    "autoscaler.scale_ups",
    "cluster.ops_served",
    "migration.aborted",
    "migration.completed",
    "migration.migrated_inodes",
    "migration.submitted",
    "proxy.demotions",
    "proxy.lease_expiries",
    "proxy.lease_grants",
    "proxy.lease_recalls",
    "proxy.promotions",
    "proxy.reads_absorbed",
};

const Names kForcedAbortsNames = {
    "cluster.dirfrag_splits",
    "cluster.ops_served",
    "migration.aborted",
    "migration.completed",
    "migration.migrated_inodes",
    "migration.retries_exhausted",
    "migration.submitted",
};

TEST(CounterDump, AsyncJournalStallCrashAndSlowNode) {
  check_dump(journal_faults_config(), kJournalFaultsNames);
}

TEST(CounterDump, ElasticPoolBehindAProxyTier) {
  check_dump(elastic_proxy_config(), kElasticProxyNames);
}

TEST(CounterDump, ForcedAbortsExhaustTheRetryBudget) {
  check_dump(forced_aborts_config(), kForcedAbortsNames);
}

TEST(CounterDump, TheScenariosReachEveryCounter) {
  // The accessor table lists every counter the dump can carry; together
  // the three scenarios must dump all of them.
  const std::unique_ptr<sim::Simulation> idle =
      sim::make_scenario(journal_faults_config());
  Names all;
  for (const auto& [name, value] : owning_tallies(*idle)) all.insert(name);
  EXPECT_EQ(all.size(), 32u);
  Names reached = kJournalFaultsNames;
  reached.insert(kElasticProxyNames.begin(), kElasticProxyNames.end());
  reached.insert(kForcedAbortsNames.begin(), kForcedAbortsNames.end());
  EXPECT_EQ(reached, all);
}

}  // namespace
}  // namespace lunule
