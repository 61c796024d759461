#include "sim/json_export.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "common/assert.h"

namespace lunule::sim {

void JsonWriter::separator() {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back() == '1') os_ << ',';
    needs_comma_.back() = '1';
  }
}

void JsonWriter::begin_object() {
  separator();
  os_ << '{';
  needs_comma_.push_back('0');
}

void JsonWriter::end_object() {
  LUNULE_CHECK(!needs_comma_.empty());
  needs_comma_.pop_back();
  os_ << '}';
}

void JsonWriter::begin_array() {
  separator();
  os_ << '[';
  needs_comma_.push_back('0');
}

void JsonWriter::end_array() {
  LUNULE_CHECK(!needs_comma_.empty());
  needs_comma_.pop_back();
  os_ << ']';
}

void JsonWriter::key(std::string_view name) {
  separator();
  escaped(name);
  os_ << ':';
  // The value that follows must not emit another separator.
  if (!needs_comma_.empty()) needs_comma_.back() = '0';
}

void JsonWriter::escaped(std::string_view s) {
  os_ << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\t': os_ << "\\t"; break;
      case '\r': os_ << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
  os_ << '"';
}

void JsonWriter::value(std::string_view s) {
  separator();
  escaped(s);
}

void JsonWriter::value(double v) {
  separator();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os_ << buf;
}

void JsonWriter::value_exact(double v) {
  separator();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  os_ << buf;
}

void JsonWriter::value(std::uint64_t v) {
  separator();
  os_ << v;
}

void JsonWriter::value(std::int64_t v) {
  separator();
  os_ << v;
}

void JsonWriter::value(bool b) {
  separator();
  os_ << (b ? "true" : "false");
}

namespace {

/// One per-epoch column as {"name": ..., "values": [...]}.
void write_series(JsonWriter& w, std::string_view name,
                  const std::vector<double>& values) {
  w.begin_object();
  w.field("name", name);
  w.key("values");
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
  w.end_object();
}

// One key list per component totals struct: each exported member is named
// once, here, and write_result names no total itself.

void write_totals(JsonWriter& w, const faults::FaultTotals& t) {
  w.field("faults_injected", t.applied);
  w.field("faults_skipped", t.skipped);
  w.field("takeover_subtrees", t.subtrees);
  w.field("takeover_inodes", t.inodes);
  w.field("fault_migration_aborts", t.aborted_migrations);
  w.field("replay_seconds", t.replay_seconds);
  w.field("replayed_entries", t.replayed_entries);
  w.field("lost_entries", t.lost_entries);
  w.field("journaled_takeover_subtrees", t.journaled_subtrees);
  w.field("journal_acked_lost_entries", t.acked_lost_entries);
  w.field("journal_dependency_violations", t.dependency_violations);
}

void write_totals(JsonWriter& w, const mds::MdsCluster::JournalTotals& t) {
  w.field("journal_entries_appended", t.appends);
  w.field("journal_bytes_written", t.bytes_written);
  w.field("journal_flushes", t.flushes);
  w.field("journal_segments_trimmed", t.segments_trimmed);
  w.field("journal_async_acked", t.async_acked);
  w.field("journal_async_background_charges", t.async_background_charges);
  w.field("journal_async_background_ops", t.async_background_ops);
  w.field("journal_async_throttle_ticks", t.async_throttle_ticks);
}

void write_totals(JsonWriter& w,
                  const mds::MdsCluster::ElasticityTotals& t) {
  w.field("scale_up_events", t.activations);
  w.field("drains_started", t.drains_started);
  w.field("scale_down_events", t.retirements);
}

void write_totals(JsonWriter& w, const proxy::ProxyCacheTier::Totals& t) {
  w.field("proxy_reads_absorbed", t.reads_absorbed);
  w.field("proxy_lease_grants", t.lease_grants);
  w.field("proxy_lease_recalls", t.lease_recalls);
  w.field("proxy_lease_expiries", t.lease_expiries);
  w.field("proxy_promotions", t.promotions);
  w.field("proxy_demotions", t.demotions);
}

}  // namespace

void write_result(std::ostream& os, const ScenarioResult& r) {
  JsonWriter w(os);
  w.begin_object();
  w.field("workload", std::string_view(r.workload));
  w.field("balancer", std::string_view(r.balancer));
  w.field("end_tick", static_cast<std::int64_t>(r.end_tick));
  const MetricsCollector& m = r.metrics;
  w.field("epoch_seconds", m.epoch_seconds());
  w.field("total_served", r.total_served);
  w.field("total_forwards", r.total_forwards);
  w.field("migrated_inodes", r.migrated_total);
  w.field("migrations_completed", r.migrations_completed);
  w.field("clients_done", static_cast<std::uint64_t>(r.clients_done));
  w.field("n_clients", static_cast<std::uint64_t>(r.n_clients));
  w.field("mean_if", m.mean_if());
  w.field("peak_aggregate_iops", m.peak_aggregate_iops());
  w.field("mean_stall_fraction", r.mean_stall_fraction);
  w.field("valid_migration_fraction", r.valid_migration_fraction);
  w.field("migrations_audited", r.migrations_audited);
  w.field("wasted_migration_inodes", r.wasted_migration_inodes);
  w.field("first_crash_tick", static_cast<std::int64_t>(r.first_crash_tick));
  w.field("reconverge_seconds", r.reconverge_seconds());
  w.field("migration_retries_exhausted", r.migration_retries_exhausted);
  w.field("rank_seconds", r.rank_seconds);
  w.field("drain_seconds", r.drain_seconds);
  write_totals(w, r.faults);
  write_totals(w, r.journal);
  write_totals(w, r.elasticity);
  write_totals(w, r.proxy);
  w.key("op_latency");
  w.begin_object();
  w.field("mean", r.op_latency.mean());
  w.field("p50", r.op_latency.percentile(50));
  w.field("p99", r.op_latency.percentile(99));
  w.field("max", r.op_latency.max_value());
  w.end_object();

  w.key("per_mds_iops");
  w.begin_array();
  for (std::size_t i = 0; i < m.ranks(); ++i) {
    write_series(w, mds_name(i), m.rank_iops(i));
  }
  w.end_array();

  w.key("if_series");
  write_series(w, "IF", m.if_values());
  w.key("aggregate_iops");
  write_series(w, "aggregate_iops", m.aggregate_iops());
  w.key("migrated_series");
  write_series(w, "migrated_inodes", m.migrated_inodes());

  w.key("total_served_per_mds");
  w.begin_array();
  for (const std::uint64_t v : r.total_served_per_mds) w.value(v);
  w.end_array();

  w.key("jct_seconds");
  w.begin_array();
  for (const double v : r.jct_seconds) w.value(v);
  w.end_array();

  w.end_object();
}

std::string to_json(const ScenarioResult& result) {
  std::ostringstream os;
  write_result(os, result);
  return os.str();
}

namespace {

void write_event(JsonWriter& w, const obs::TraceEvent& e) {
  w.begin_object();
  w.field("kind", obs::event_kind_name(e.kind));
  w.field("epoch", static_cast<std::int64_t>(e.epoch));
  w.field("tick", static_cast<std::int64_t>(e.tick));
  w.field("a", static_cast<std::int64_t>(e.a));
  w.field("b", static_cast<std::int64_t>(e.b));
  w.field("n0", e.n0);
  w.field("n1", e.n1);
  w.field("v0", e.v0);
  w.field("v1", e.v1);
  w.field("v2", e.v2);
  w.field("v3", e.v3);
  w.end_object();
}

}  // namespace

void write_trace(std::ostream& os, const obs::TraceRecorder& trace) {
  JsonWriter w(os);
  w.begin_object();
  w.field("enabled", trace.enabled());

  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : trace.counters().all()) {
    w.field(std::string_view(name), value);
  }
  w.end_object();

  w.key("components");
  w.begin_object();
  for (std::size_t c = 0; c < obs::kComponentCount; ++c) {
    const auto component = static_cast<obs::Component>(c);
    const obs::TraceRing& ring = trace.ring(component);
    w.key(obs::component_name(component));
    w.begin_object();
    w.field("pushed", ring.pushed());
    w.field("dropped", ring.dropped());
    w.key("events");
    w.begin_array();
    for (std::size_t i = 0; i < ring.size(); ++i) {
      write_event(w, ring.at(i));
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.end_object();
}

std::string trace_to_json(const obs::TraceRecorder& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

}  // namespace lunule::sim
