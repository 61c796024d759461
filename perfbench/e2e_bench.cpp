// End-to-end and per-layer throughput benchmark of the simulator.
//
//   perfbench_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--smoke] [--spans=FILE]
//
// One repetition builds one of the run's scenarios with make_scenario
// (timed: set-up) and runs it.  Untraced repetitions call Simulation::run,
// so the end-to-end numbers carry no timer overhead.  Traced repetitions
// drive the same tick loop through the public calls Simulation::run makes
// and time each call (a span per call, kept in memory).  Repetitions cycle
// through the scenarios until --seconds have passed; --trace=0 makes
// untraced ones followed by one traced repetition for the correctness gate,
// --trace=1 alternates the two kinds.
//
// A fixed host-speed probe runs between repetitions.  On a shared host the
// same repetition runs up to 1.7 times faster or slower from one minute to
// the next, as other tenants load the shared caches and cores.  ops_per_s
// and setup_s scale each untraced repetition's timings by the probe's time
// around it, so that drift cancels while a change to the simulator still
// shows in full.
//
// Correctness gate, per repetition: client-completed ops equal MDS-served
// plus proxy-absorbed ops; every repetition reproduces its scenario's first
// untraced repetition exactly; the traced loop's invariant checker reports
// no violation.  The ops of a repetition that fails any check count as
// failed.
//
// Prints one JSON object on stdout (provenance, gate, end-to-end and
// per-layer metrics); perfbench/run.py turns it into the result line.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/concurrency.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/worker_pool.h"
#include "obs/invariant_checker.h"
#include "sim/json_export.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace lunule::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Lowers the process's peak-RSS mark to its current RSS, so the next
/// reading covers only what runs after this call.  Where /proc does not
/// allow it the mark keeps counting from process start.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set of this process since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -- Host-speed probe --------------------------------------------------------

/// Zero-filled anonymous memory that goes back to the system when destroyed,
/// so the probe never holds on to memory a workload could have reused.
template <class T>
class MappedArray {
 public:
  explicit MappedArray(std::size_t n) : n_(n) {
    void* p = mmap(nullptr, n_ * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("probe: mmap failed");
    data_ = static_cast<T*>(p);
  }
  ~MappedArray() { munmap(data_, n_ * sizeof(T)); }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  T* begin() { return data_; }
  T* end() { return data_ + n_; }
  T& operator[](std::size_t i) { return data_[i]; }

 private:
  T* data_ = nullptr;
  std::size_t n_;
};

/// A typical probe time on the host the benchmark was tuned on (shared
/// 4-vCPU Xeon VM, where it took 0.08 to 0.14 s).  Dividing by it keeps
/// ops_per_s in ops per wall-second of a host running at that speed.
constexpr double kProbeReferenceS = 0.100;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// A Zipf pick by binary search over a CDF, a read and a write of a 64-byte
/// record in an 8 MB table, a counter bump in a 2 MB table.
double array_probe_s() {
  constexpr std::size_t kRanks = std::size_t{1} << 16;
  constexpr std::size_t kRecords = std::size_t{1} << 17;
  constexpr std::size_t kCounters = std::size_t{1} << 19;
  constexpr int kPicks = 400000;
  struct Record {
    std::uint64_t field[8];
  };
  MappedArray<double> cdf(kRanks);
  MappedArray<Record> records(kRecords);
  MappedArray<std::uint32_t> counters(kCounters);
  double total = 0.0;
  for (std::size_t i = 0; i < kRanks; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  // Fault every page in before the clock starts.
  for (std::size_t i = 0; i < kRecords; ++i) records[i].field[0] = i;
  for (std::uint32_t& c : counters) c = 1;

  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sum = 0;
  for (int i = 0; i < kPicks; ++i) {
    const std::uint64_t r = xorshift(x);
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    Record& rec = records[(rank * 2654435761U + (r & 0xFF)) & (kRecords - 1)];
    sum += rec.field[0] + rec.field[3];
    ++rec.field[1];
    sum += ++counters[(rank * 40503U + (r >> 48)) & (kCounters - 1)];
  }
  const double s = seconds_since(t0);
  // Keeps the loop from being optimised away.
  if (sum == 0) throw std::logic_error("probe: empty checksum");
  return s;
}

/// A node-based hash map filled with random keys and then queried at random.
/// Its nodes come from an arena in mapped memory, so the probe leaves the
/// allocator as it found it.
double map_probe_s() {
  constexpr std::size_t kArenaBytes = std::size_t{24} << 20;
  constexpr std::uint64_t kKeys = 300000;
  constexpr int kInserts = 450000;
  constexpr int kLookups = 450000;
  MappedArray<std::byte> arena(kArenaBytes);
  // Fault every page in before the clock starts.
  for (std::size_t i = 0; i < kArenaBytes; i += 4096) arena[i] = std::byte{1};
  std::pmr::monotonic_buffer_resource pool(arena.begin(), kArenaBytes,
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&pool);

  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::uint64_t sum = 0;
  for (int i = 0; i < kInserts; ++i) map[xorshift(x) % kKeys] += i;
  for (int i = 0; i < kLookups; ++i) {
    if (const auto it = map.find(xorshift(x) % kKeys); it != map.end()) {
      sum += it->second;
    }
  }
  const double s = seconds_since(t0);
  if (sum == 0) throw std::logic_error("probe: empty checksum");
  return s;
}

/// Wall seconds of two fixed loops shaped like the simulator's work: array
/// records picked by a Zipf law, and a hash map.  Their code does not change
/// with the simulator's, so their time follows only how fast the host runs
/// this kind of code at the moment.  Either loop alone tracks the
/// simulator's drift from run to run less closely than the two together.
double host_probe_s() { return array_probe_s() + map_probe_s(); }

// -- Workloads ---------------------------------------------------------------

/// The three benchmark workloads.  All run 16 MDS at 2,500 IOPS, 400
/// closed-loop clients and the Lunule balancer; --smoke shrinks every one to
/// a few MDS, a few clients and a short horizon so a run takes seconds.
/// Proxy tier, faults and autoscaler stay off (outside the paper's
/// evaluation); the traced loop relies on that.
///
/// Every workload runs the sharded engine at S = 1: binding, lanes, merge
/// and the deferred pass all run, on one thread.  On a shared 4-vCPU host
/// S = 4 was no faster and two to five times noisier from run to run, since
/// every fork-join round waits for its slowest, possibly preempted, thread.
sim::ScenarioConfig make_workload(const std::string& name, std::uint64_t seed,
                                  bool smoke) {
  sim::ScenarioConfig c;
  c.balancer = sim::BalancerKind::kLunule;
  c.n_mds = smoke ? 4 : 16;
  c.n_clients = smoke ? 24 : 400;
  c.mds_capacity_iops = 2500.0;
  c.sharded_ticks = 1;
  c.seed = seed;
  if (name == "zipf-read") {
    // Filebench Zipfian read: a private dir of 10,000 files per client under
    // the 80/20 rule.  The per-op read path dominates.
    c.workload = sim::WorkloadKind::kZipf;
    c.scale = smoke ? 0.05 : 1.0;
    c.max_ticks = smoke ? 60 : 400;
  } else if (name == "tenant-100k") {
    // Container-platform tenants at scale 50: 100,000 dirs x 8 files, Zipf
    // popularity, 5% creates.  Tens of thousands of dirs stay active per
    // epoch, so epoch close and the balancer carry real weight.
    c.workload = sim::WorkloadKind::kTenant;
    c.scale = smoke ? 1.0 : 50.0;
    c.max_ticks = smoke ? 60 : 200;
  } else if (name == "md-create-journal") {
    // MDtest creates into per-client dirs, open-ended, sync journal on: the
    // only write workload, and the only one that appends to the journal.
    c.workload = sim::WorkloadKind::kMd;
    c.journal.enabled = true;
    c.max_ticks = smoke ? 60 : 400;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return c;
}

// -- Deterministic outcome of one repetition ---------------------------------

struct Outcome {
  std::uint64_t client_ops = 0;
  std::uint64_t served = 0;
  std::uint64_t absorbed = 0;
  Tick end_tick = 0;
  double mean_if = 0.0;
  std::uint64_t migrated_inodes = 0;

  /// Completed ops per simulated second (a tick is one second).
  [[nodiscard]] double sim_iops() const {
    return end_tick > 0 ? static_cast<double>(client_ops) /
                              static_cast<double>(end_tick)
                        : 0.0;
  }
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const sim::Simulation& s,
                   const sim::MetricsCollector& metrics, Tick end_tick) {
  Outcome o;
  for (const auto& c : s.clients()) o.client_ops += c->meta_ops_completed();
  o.served = s.cluster().total_served();
  o.absorbed = s.cluster().trace().counters().value("proxy.reads_absorbed");
  o.end_tick = end_tick;
  o.mean_if = metrics.mean_if(/*skip=*/3);
  o.migrated_inodes = s.cluster().migration().total_migrated_inodes();
  return o;
}

// -- Traced tick loop --------------------------------------------------------

enum Layer : std::uint8_t {
  kBeginTick,
  kBind,
  kRankStreams,
  kMergeLanes,
  kDeferredPass,
  kEndTick,
  kCloseEpoch,
  kMetrics,
  kBalancer,
  kCheckEpoch,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "mds.begin_tick",
    "sim.bind",
    "workloads.rank_streams",
    "mds.merge_lanes",
    "workloads.deferred_pass",
    "mds.end_tick",
    "mds.close_epoch",
    "sim.metrics",
    "balancer.on_epoch",
    "obs.check_epoch",
};

/// One timed call.  Every span's parent is the tick it ran in.
struct Span {
  Layer layer;
  std::int32_t tick;
  std::int64_t start_ns;  // since the traced loop started
  std::int64_t dur_ns;
};

/// What one traced repetition observed besides its spans.
struct TracedRep {
  Outcome outcome;
  double loop_s = 0.0;   // wall time of the whole traced tick loop
  double check_s = 0.0;  // of which the invariant checker took this much
  std::uint64_t client_ticks = 0;
  std::uint64_t deferred_client_ticks = 0;
  std::vector<std::size_t> active_dirs;  // candidate_dirs() after each close
  std::uint64_t violations = 0;
  // End-of-run counts read through public accessors.
  std::uint64_t forwards = 0;
  std::uint64_t stalled_ticks = 0;
  std::uint64_t active_ticks = 0;
  std::uint64_t migrations_completed = 0;
  double migration_valid_fraction = 0.0;
  std::uint64_t migration_retries_exhausted = 0;
  mds::MdsCluster::JournalTotals journal;
};

class Tracer {
 public:
  Tracer(std::vector<Span>& spans, Clock::time_point origin)
      : spans_(spans), origin_(origin) {}

  template <class Fn>
  void time(Layer layer, Tick tick, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    spans_.push_back(
        Span{layer, static_cast<std::int32_t>(tick),
             std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - origin_)
                 .count(),
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()});
  }

 private:
  std::vector<Span>& spans_;
  Clock::time_point origin_;
};

/// Runs `s` to the end the way Simulation::run does for a scenario without
/// events, faults, data path, cache tier or autoscaler, timing each call.
TracedRep run_traced(sim::Simulation& s, const sim::ScenarioConfig& cfg,
                     std::vector<Span>& spans) {
  mds::MdsCluster& cluster = s.cluster();
  const auto& clients = s.clients();
  const std::size_t n = clients.size();
  const std::size_t n_ranks = cluster.size();

  core::IfParams if_params;
  if_params.mds_capacity = cfg.mds_capacity_iops;
  sim::MetricsCollector metrics(static_cast<double>(cfg.epoch_ticks),
                                if_params);
  obs::InvariantChecker checker;
  s.balancer().setup(cluster);

  ConcurrencyGrant grant(static_cast<std::size_t>(cfg.sharded_ticks) - 1);
  WorkerPool pool(grant.granted());
  cluster.set_shard_pool(&pool);

  std::vector<mds::TickLane> lanes(n_ranks);
  std::vector<std::vector<std::size_t>> by_rank(n_ranks);
  std::vector<std::uint8_t> deferred(n, 0);

  TracedRep rep;
  const std::size_t first_span = spans.size();
  const Clock::time_point loop_start = Clock::now();
  Tracer tr(spans, loop_start);
  Tick now = 0;
  for (; now < cfg.max_ticks; ++now) {
    tr.time(kBeginTick, now, [&] { cluster.begin_tick(now); });
    tr.time(kBind, now, [&] {
      for (auto& bucket : by_rank) bucket.clear();
      std::fill(deferred.begin(), deferred.end(), 0);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (k + static_cast<std::size_t>(now)) % n;
        const MdsId r = clients[idx]->shard_rank(cluster, now);
        if (r == kNoMds) {
          deferred[idx] = 1;
        } else {
          by_rank[static_cast<std::size_t>(r)].push_back(idx);
        }
      }
    });
    tr.time(kRankStreams, now, [&] {
      pool.run_indexed(n_ranks, [&](std::size_t r) {
        lanes[r].reset(static_cast<MdsId>(r), n_ranks);
        workloads::ShardBinding binding{static_cast<MdsId>(r), &lanes[r]};
        for (const std::size_t idx : by_rank[r]) {
          bool paused = false;
          clients[idx]->run_tick(cluster, nullptr, now, &binding, &paused);
          if (paused) deferred[idx] = 1;
        }
      });
    });
    tr.time(kMergeLanes, now, [&] { cluster.merge_lanes(lanes); });
    tr.time(kDeferredPass, now, [&] {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (k + static_cast<std::size_t>(now)) % n;
        if (deferred[idx] != 0) {
          clients[idx]->run_tick(cluster, nullptr, now);
          ++rep.deferred_client_ticks;
        }
      }
    });
    rep.client_ticks += n;
    tr.time(kEndTick, now, [&] { cluster.end_tick(); });

    if ((now + 1) % cfg.epoch_ticks == 0) {
      std::vector<Load> loads;
      tr.time(kCloseEpoch, now, [&] { loads = cluster.close_epoch(); });
      tr.time(kCheckEpoch, now, [&] {
        rep.violations += checker.check_epoch(cluster, loads).size();
      });
      if (const std::vector<DirId>* active = cluster.candidate_dirs()) {
        rep.active_dirs.push_back(active->size());
      }
      tr.time(kMetrics, now, [&] { metrics.on_epoch(cluster, loads); });
      tr.time(kBalancer, now,
              [&] { s.balancer().on_epoch(cluster, loads); });
    }

    if (cfg.stop_when_done && s.clients_done() == n) {
      ++now;
      break;
    }
  }
  rep.loop_s = seconds_since(loop_start);
  cluster.set_shard_pool(nullptr);
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    if (spans[i].layer == kCheckEpoch) {
      rep.check_s += static_cast<double>(spans[i].dur_ns) / 1e9;
    }
  }

  rep.outcome = outcome_of(s, metrics, now);
  for (const auto& c : clients) {
    rep.forwards += c->forwards();
    rep.stalled_ticks += c->stalled_ticks();
    rep.active_ticks += c->active_ticks();
  }
  rep.migrations_completed = cluster.migration().migrations_completed();
  rep.migration_valid_fraction = cluster.audit().valid_fraction();
  rep.migration_retries_exhausted = cluster.migration().retries_exhausted();
  rep.journal = cluster.journal_totals();
  return rep;
}

// -- Statistics --------------------------------------------------------------

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : percentile(v, 50.0);
}

/// The highest order statistic with at least ten samples beyond it (the
/// maximum when there are too few samples for that).
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

// -- JSON output -------------------------------------------------------------

/// Named metrics with units, in print order.
class Metrics {
 public:
  void add(std::string name, double value, std::string_view unit) {
    items_.push_back({std::move(name), value, unit});
  }

  /// Writes `key: {name: {"value": v, "unit": u}, ...}`.
  void write(sim::JsonWriter& w, std::string_view key) const {
    w.key(key);
    w.begin_object();
    for (const Item& m : items_) {
      w.key(m.name);
      w.begin_object();
      w.field_exact("value", m.value);
      w.field("unit", m.unit);
      w.end_object();
    }
    w.end_object();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string_view unit;
  };
  std::vector<Item> items_;
};

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

// -- Run ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

/// Scenarios one run cycles through, with seeds derived from --seed.  The
/// simulated outcome of one seed (balancer decisions, client start skew)
/// moves the deterministic metrics by several percent; averaging over four
/// scenarios keeps them steady from one --seed to the next.
constexpr std::size_t kScenariosPerRun = 4;

struct UntracedRep {
  Outcome outcome;
  double setup_s = 0.0;
  double run_s = 0.0;
  double probe_s = 0.0;  // mean of the probes just before and just after

  /// How much slower than at the probe's reference speed the host ran.
  [[nodiscard]] double host_slowdown() const {
    return probe_s / kProbeReferenceS;
  }
  // Both timings as they would read on a host at the reference speed.
  [[nodiscard]] double scaled_run_s() const { return run_s / host_slowdown(); }
  [[nodiscard]] double scaled_setup_s() const {
    return setup_s / host_slowdown();
  }
};

/// Client-completed ops of all untraced repetitions over their summed run
/// time, as measured or as scaled to the probe's reference speed.
double aggregate_ops_per_s(const std::vector<UntracedRep>& reps, bool scaled) {
  double ops = 0.0;
  double seconds = 0.0;
  for (const UntracedRep& r : reps) {
    ops += static_cast<double>(r.outcome.client_ops);
    seconds += scaled ? r.scaled_run_s() : r.run_s;
  }
  return ops / seconds;
}

/// Everything one run observed.
struct RunLog {
  std::vector<UntracedRep> untraced;
  std::vector<TracedRep> traced;
  std::vector<Span> spans;
  /// Per scenario, the outcome of its first untraced repetition: the
  /// reference every later repetition of that scenario must reproduce.
  std::vector<std::optional<Outcome>> reference;
  std::vector<double> probe_s;  // every probe, in run order
  double setup_rss_mb = 0.0;    // peak during the first set-up
  double peak_rss_mb = 0.0;     // highest peak of an untraced repetition
  std::size_t fs_dirs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_errors;

  /// Applies the correctness gate to one repetition of scenario `k`.
  void check(std::size_t k, const Outcome& o, const char* kind,
             std::size_t index, std::uint64_t violations) {
    attempted += o.client_ops;
    std::string why;
    if (o.client_ops != o.served + o.absorbed) {
      why = "client-completed ops != served + absorbed";
    } else if (reference[k] && !(o == *reference[k])) {
      why = "outcome differs from the scenario's first untraced repetition";
    } else if (violations != 0) {
      why = std::to_string(violations) + " invariant violations";
    }
    if (why.empty()) return;
    failed += o.client_ops;
    std::ostringstream msg;
    msg << kind << " repetition " << index << " (scenario " << k
        << "): " << why;
    gate_errors.push_back(msg.str());
  }
};

/// Makes repetitions round robin over `scenarios` until every scenario ran
/// once and `opt.seconds` have passed, with the host-speed probe before the
/// first repetition and after every one.
RunLog measure(const std::vector<sim::ScenarioConfig>& scenarios,
               const Options& opt) {
  RunLog log;
  log.reference.resize(scenarios.size());
  auto probe = [&] {
    log.probe_s.push_back(host_probe_s());
    return log.probe_s.back();
  };

  auto untraced_rep = [&](std::size_t k, double probe_before) {
    UntracedRep r;
    reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<sim::Simulation> s = sim::make_scenario(scenarios[k]);
    r.setup_s = seconds_since(t0);
    if (log.untraced.empty()) {
      log.setup_rss_mb = peak_rss_mb();
      log.fs_dirs = s->tree().dir_count();
    }
    const Clock::time_point t1 = Clock::now();
    s->run();
    r.run_s = seconds_since(t1);
    log.peak_rss_mb = std::max(log.peak_rss_mb, peak_rss_mb());
    r.outcome = outcome_of(*s, s->metrics(), s->end_tick());
    log.check(k, r.outcome, "untraced", log.untraced.size(), 0);
    if (!log.reference[k]) log.reference[k] = r.outcome;
    s.reset();
    r.probe_s = 0.5 * (probe_before + probe());
    log.untraced.push_back(r);
  };

  auto traced_rep = [&](std::size_t k) {
    std::unique_ptr<sim::Simulation> s = sim::make_scenario(scenarios[k]);
    TracedRep r = run_traced(*s, scenarios[k], log.spans);
    log.check(k, r.outcome, "traced", log.traced.size(), r.violations);
    log.traced.push_back(std::move(r));
  };

  const Clock::time_point start = Clock::now();
  probe();
  for (std::size_t i = 0;
       i < scenarios.size() || seconds_since(start) < opt.seconds; ++i) {
    untraced_rep(i % scenarios.size(), log.probe_s.back());
    if (opt.trace) {
      traced_rep(i % scenarios.size());
      probe();  // the next untraced repetition's probe before
    }
  }
  if (!opt.trace) traced_rep(0);  // correctness gate only
  return log;
}

/// Throughput aggregates the untraced repetitions and set-up time is their
/// median, both scaled to the probe's reference speed; the simulated metrics
/// average the scenarios' reference outcomes.
Metrics end_to_end_metrics(const RunLog& log) {
  std::vector<double> setup_s;
  for (const UntracedRep& r : log.untraced) {
    setup_s.push_back(r.scaled_setup_s());
  }
  double sim_iops = 0.0;
  double sim_mean_if = 0.0;
  for (const std::optional<Outcome>& ref : log.reference) {
    sim_iops += ref->sim_iops();
    sim_mean_if += ref->mean_if;
  }
  const auto n = static_cast<double>(log.reference.size());
  Metrics m;
  m.add("ops_per_s", aggregate_ops_per_s(log.untraced, /*scaled=*/true),
        "ops/s");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", log.peak_rss_mb, "MB");
  m.add("sim_iops", sim_iops / n, "ops/sim_s");
  m.add("sim_mean_if", sim_mean_if / n, "ratio");
  return m;
}

Metrics layer_metrics(const RunLog& log) {
  // Timings pool the spans of every traced repetition.
  std::array<std::vector<double>, kLayerCount> call_us;
  std::array<double, kLayerCount> self_s{};
  for (const Span& sp : log.spans) {
    call_us[sp.layer].push_back(static_cast<double>(sp.dur_ns) / 1e3);
    self_s[sp.layer] += static_cast<double>(sp.dur_ns) / 1e9;
  }
  double loop_s = 0.0;
  std::uint64_t traced_ops = 0;
  std::uint64_t violations = 0;
  std::vector<double> traced_loop_s;  // checker time excluded
  for (const TracedRep& r : log.traced) {
    loop_s += r.loop_s;
    traced_loop_s.push_back(r.loop_s - r.check_s);
    traced_ops += r.outcome.client_ops;
    violations += r.violations;
  }
  std::vector<double> run_s;
  std::vector<double> raw_setup_s;
  for (const UntracedRep& r : log.untraced) {
    run_s.push_back(r.run_s);
    raw_setup_s.push_back(r.setup_s);
  }

  // Timed repetitions never validate, so the checker's time is kept out of
  // the loop wall that shares and coverage divide by.
  const double loop_wall = loop_s - self_s[kCheckEpoch];
  double covered = 0.0;
  Metrics m;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string name = kLayerNames[l];
    if (l != kCheckEpoch) covered += self_s[l];
    m.add(name + ".share", self_s[l] / loop_wall, "fraction");
    m.add(name + ".p50_us", median(call_us[l]), "us");
    m.add(name + ".tail_us", tail(call_us[l]), "us");
    m.add(name + ".calls", static_cast<double>(call_us[l].size()), "count");
  }
  m.add("workloads.ns_per_op",
        (self_s[kRankStreams] + self_s[kDeferredPass]) * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(traced_ops, 1)),
        "ns/op");

  // Counts are deterministic per scenario: average the first traced
  // repetition of each scenario that was traced, so they do not depend on
  // how many repetitions fit in the run.
  const std::size_t counted =
      std::min(log.traced.size(), log.reference.size());
  const auto mean_of = [&](auto field) {
    double total = 0.0;
    for (std::size_t i = 0; i < counted; ++i) {
      total += static_cast<double>(field(log.traced[i]));
    }
    return total / static_cast<double>(counted);
  };
  const double ops = mean_of([](const TracedRep& r) {
    return std::max<std::uint64_t>(r.outcome.client_ops, 1);
  });
  std::vector<double> active_dirs;
  for (std::size_t i = 0; i < counted; ++i) {
    for (const std::size_t a : log.traced[i].active_dirs) {
      active_dirs.push_back(static_cast<double>(a));
    }
  }
  m.add("sim.deferred_share",
        mean_of([](const TracedRep& r) { return r.deferred_client_ticks; }) /
            mean_of([](const TracedRep& r) { return r.client_ticks; }),
        "fraction");
  m.add("bench.coverage", covered / loop_wall, "fraction");
  m.add("bench.trace_overhead", median(traced_loop_s) / median(run_s) - 1.0,
        "fraction");
  m.add("bench.raw_ops_per_s",
        aggregate_ops_per_s(log.untraced, /*scaled=*/false), "ops/s");
  m.add("bench.raw_setup_s", median(raw_setup_s), "s");
  m.add("bench.host_probe_ms", median(log.probe_s) * 1e3, "ms");
  m.add("fs.dirs", static_cast<double>(log.fs_dirs), "count");
  m.add("mds.active_dirs.p50", median(active_dirs), "count");
  m.add("mds.active_dirs.max",
        active_dirs.empty()
            ? 0.0
            : *std::max_element(active_dirs.begin(), active_dirs.end()),
        "count");
  m.add("workloads.forwards_per_op",
        mean_of([](const TracedRep& r) { return r.forwards; }) / ops,
        "forwards/op");
  m.add("workloads.stall_share",
        mean_of([](const TracedRep& r) { return r.stalled_ticks; }) /
            mean_of([](const TracedRep& r) {
              return std::max<std::uint64_t>(r.active_ticks, 1);
            }),
        "fraction");
  m.add("mds.migrations_completed",
        mean_of([](const TracedRep& r) { return r.migrations_completed; }),
        "count");
  m.add("mds.migrated_inodes",
        mean_of([](const TracedRep& r) { return r.outcome.migrated_inodes; }),
        "count");
  m.add("mds.migration_valid_fraction",
        mean_of([](const TracedRep& r) { return r.migration_valid_fraction; }),
        "fraction");
  m.add("mds.migration_retries_exhausted",
        mean_of([](const TracedRep& r) {
          return r.migration_retries_exhausted;
        }),
        "count");
  m.add("journal.appends",
        mean_of([](const TracedRep& r) { return r.journal.appends; }),
        "count");
  m.add("journal.flushes",
        mean_of([](const TracedRep& r) { return r.journal.flushes; }),
        "count");
  m.add("journal.bytes_per_op",
        mean_of([](const TracedRep& r) { return r.journal.bytes_written; }) /
            ops,
        "B/op");
  m.add("journal.segments_trimmed",
        mean_of([](const TracedRep& r) { return r.journal.segments_trimmed; }),
        "count");
  m.add("obs.violations", static_cast<double>(violations), "count");
  m.add("setup.rss_mb", log.setup_rss_mb, "MB");
  return m;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "layer,tick,start_ns,dur_ns\n";
  for (const Span& sp : spans) {
    out << kLayerNames[sp.layer] << ',' << sp.tick << ',' << sp.start_ns
        << ',' << sp.dur_ns << '\n';
  }
  return static_cast<bool>(out);
}

void write_record(std::ostream& os, const Options& opt,
                  const std::vector<sim::ScenarioConfig>& scenarios,
                  const RunLog& log) {
  const sim::ScenarioConfig& cfg = scenarios.front();
  sim::JsonWriter out(os);
  out.begin_object();
  out.key("provenance");
  out.begin_object();
  out.field("workload", std::string_view(opt.workload));
  out.field("seed", opt.seed);
  out.key("scenario_seeds");
  out.begin_array();
  for (const sim::ScenarioConfig& sc : scenarios) out.value(sc.seed);
  out.end_array();
  out.field("smoke", opt.smoke);
  out.field("shards", static_cast<std::int64_t>(cfg.sharded_ticks));
  out.field("hw_threads",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  out.field("n_mds", static_cast<std::uint64_t>(cfg.n_mds));
  out.field("n_clients", static_cast<std::uint64_t>(cfg.n_clients));
  out.field("scale", cfg.scale);
  out.field("max_ticks", static_cast<std::int64_t>(cfg.max_ticks));
  out.field("journal", cfg.journal.enabled);
  out.field("compiler", std::string_view(PERFBENCH_COMPILER));
  out.field("build_type", std::string_view(PERFBENCH_BUILD_TYPE));
  out.field("optimized", optimized_build());
  out.field("untraced_reps", static_cast<std::uint64_t>(log.untraced.size()));
  out.field("traced_reps", static_cast<std::uint64_t>(log.traced.size()));
  out.field_exact("probe_reference_s", kProbeReferenceS);
  out.end_object();
  // Per untraced repetition: scenario, ops, set-up s, run s, probe s.
  out.key("repetitions");
  out.begin_array();
  for (std::size_t i = 0; i < log.untraced.size(); ++i) {
    const UntracedRep& r = log.untraced[i];
    out.begin_array();
    out.value(static_cast<std::uint64_t>(i % scenarios.size()));
    out.value(r.outcome.client_ops);
    out.value_exact(r.setup_s);
    out.value_exact(r.run_s);
    out.value_exact(r.probe_s);
    out.end_array();
  }
  out.end_array();
  out.field("correct", log.gate_errors.empty());
  out.field("attempted", log.attempted);
  out.field("failed", log.failed);
  out.key("gate_errors");
  out.begin_array();
  for (const std::string& e : log.gate_errors) out.value(std::string_view(e));
  out.end_array();
  end_to_end_metrics(log).write(out, "end_to_end");
  layer_metrics(log).write(out, "per_layer");
  out.end_object();
  os << std::endl;
}

int run(const Options& opt) {
  std::vector<sim::ScenarioConfig> scenarios;
  for (std::size_t k = 0; k < kScenariosPerRun; ++k) {
    scenarios.push_back(make_workload(
        opt.workload, opt.seed * kScenariosPerRun + k, opt.smoke));
  }
  RunLog log = measure(scenarios, opt);
  if (!opt.spans_path.empty() && !write_spans(opt.spans_path, log.spans)) {
    log.gate_errors.push_back("cannot write spans to " + opt.spans_path);
  }
  write_record(std::cout, opt, scenarios, log);
  for (const std::string& e : log.gate_errors) {
    std::cerr << "gate: " << e << "\n";
  }
  return log.gate_errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lunule::perfbench

int main(int argc, char** argv) {
  using namespace lunule;
  Flags flags(argc, argv);
  perfbench::Options opt;
  opt.workload = flags.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", -1));
  opt.seconds = flags.get_double("seconds", 10.0);
  opt.trace = flags.get_int("trace", 0) != 0;
  opt.smoke = flags.get_bool("smoke", false);
  opt.spans_path = flags.get("spans", "");
  flags.check_unused();
  if (opt.workload.empty() || !flags.has("seed")) {
    std::cerr << "usage: perfbench_e2e --workload=NAME --seed=N "
                 "[--seconds=S] [--trace=0|1] [--smoke] [--spans=FILE]\n";
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 2;
  }
}
