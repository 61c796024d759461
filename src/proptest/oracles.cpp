#include "proptest/oracles.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "balancer/policy_lang.h"
#include "common/rng.h"
#include "core/imbalance_factor.h"
#include "sim/json_export.h"

namespace lunule::proptest {

namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Result JSON + trace JSON of one run (capture_trace forced on so the
/// comparison covers the full flight-recorder stream, not just summaries).
struct RunFingerprint {
  sim::ScenarioResult result;
  std::string result_json;
  std::uint64_t result_digest = 0;
  std::uint64_t trace_digest = 0;
};

RunFingerprint fingerprint(sim::ScenarioConfig cfg) {
  cfg.capture_trace = true;
  RunFingerprint fp;
  fp.result = sim::run_scenario(cfg);
  fp.result_json = sim::to_json(fp.result);
  fp.result_digest = digest64(fp.result_json);
  fp.trace_digest = digest64(fp.result.trace_json);
  return fp;
}

/// Strips fault events whose semantics differ between the two sides of the
/// journal comparison (crashes lose un-flushed entries; stalls only exist
/// with a journal).
faults::FaultPlan crash_free(const faults::FaultPlan& plan) {
  faults::FaultPlan out;
  for (const faults::FaultEvent& e : plan.events) {
    if (e.kind == faults::FaultKind::kCrash ||
        e.kind == faults::FaultKind::kPermanentLoss ||
        e.kind == faults::FaultKind::kJournalStall) {
      continue;
    }
    out.events.push_back(e);
  }
  return out;
}

// -- Oracles ----------------------------------------------------------------

OracleResult check_same_seed_determinism(const sim::ScenarioConfig& cfg) {
  const RunFingerprint a = fingerprint(cfg);
  const RunFingerprint b = fingerprint(cfg);
  if (a.result_json != b.result_json) {
    return OracleResult::fail("same seed, different result JSON: " +
                              hex(a.result_digest) + " vs " +
                              hex(b.result_digest));
  }
  if (a.result.trace_json != b.result.trace_json) {
    return OracleResult::fail("same seed, different trace: " +
                              hex(a.trace_digest) + " vs " +
                              hex(b.trace_digest));
  }
  return OracleResult::ok();
}

OracleResult check_single_mds_no_migrations(const sim::ScenarioConfig& cfg) {
  // With one rank there is nowhere to migrate to and nobody to forward to —
  // for *every* balancer, including the static-placement ones.
  sim::ScenarioConfig base = cfg;
  base.n_mds = 1;
  base.faults = {};  // plans may target ranks that no longer exist
  for (const sim::BalancerKind kind : sim::kAllBalancers) {
    base.balancer = kind;
    const sim::ScenarioResult r = sim::run_scenario(base);
    if (r.migrated_total != 0 || r.migrations_completed != 0 ||
        r.total_forwards != 0) {
      std::ostringstream os;
      os << "single-MDS run under " << sim::balancer_name(kind)
         << " migrated " << r.migrated_total << " inodes ("
         << r.migrations_completed << " migrations, " << r.total_forwards
         << " forwards)";
      return OracleResult::fail(os.str());
    }
    if (r.total_served == 0) {
      return OracleResult::fail(
          std::string("single-MDS run under ") +
          std::string(sim::balancer_name(kind)) + " served nothing");
    }
  }
  return OracleResult::ok();
}

OracleResult check_rank_relabel_invariance(const sim::ScenarioConfig& cfg) {
  // End-to-end rank relabeling is deliberately NOT a symmetry of the
  // simulator (rank ids break sort ties, rank 0 roots the namespace), but
  // the *decision substrate* every balancer consumes must be: the imbalance
  // factor and the policy-env statistics are functions of the load
  // *multiset*.  Checked on random load vectors derived from the scenario
  // seed, against random permutations.
  if (cfg.n_mds < 2) {
    return OracleResult::skip("needs >= 2 ranks to permute");
  }
  Rng rng = Rng(cfg.seed).fork(0x7e1abe1);
  const core::IfParams if_params{.mds_capacity = cfg.mds_capacity_iops};
  for (int round = 0; round < 8; ++round) {
    std::vector<Load> loads(cfg.n_mds);
    for (Load& l : loads) {
      l = cfg.mds_capacity_iops * 1.2 * rng.next_double();
    }
    std::vector<std::size_t> perm(loads.size());
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(std::span<std::size_t>(perm));
    std::vector<Load> shuffled(loads.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      shuffled[i] = loads[perm[i]];
    }

    const double if_a = core::imbalance_factor(loads, if_params);
    const double if_b = core::imbalance_factor(shuffled, if_params);
    if (std::abs(if_a - if_b) > 1e-9 * std::max(1.0, std::abs(if_a))) {
      std::ostringstream os;
      os << "imbalance_factor changed under rank relabeling: " << if_a
         << " vs " << if_b;
      return OracleResult::fail(os.str());
    }

    // Policy env: cluster statistics must not move; `my` must follow the
    // relabeled rank.
    const balancer::PolicyEnv env_a =
        balancer::make_policy_env(loads, static_cast<MdsId>(perm[0]),
                                  cfg.mds_capacity_iops, /*epoch=*/3);
    const balancer::PolicyEnv env_b =
        balancer::make_policy_env(shuffled, /*my_rank=*/0,
                                  cfg.mds_capacity_iops, /*epoch=*/3);
    for (const char* stat : {"avg", "min", "max", "total", "n", "my"}) {
      const double va = env_a.at(stat);
      const double vb = env_b.at(stat);
      if (std::abs(va - vb) > 1e-9 * std::max(1.0, std::abs(va))) {
        std::ostringstream os;
        os << "policy env '" << stat
           << "' changed under rank relabeling: " << va << " vs " << vb;
        return OracleResult::fail(os.str());
      }
    }
  }
  return OracleResult::ok();
}

OracleResult check_shard_equivalence(const sim::ScenarioConfig& cfg) {
  // The sharded tick engine's canonical schedule is fixed at S = 1;
  // higher shard counts only change how many workers execute it, so the
  // trace and the result must be byte-identical.  (S = 0, the legacy
  // rotation engine, is a *different* schedule and deliberately not
  // compared.)
  sim::ScenarioConfig one = cfg;
  one.sharded_ticks = 1;
  sim::ScenarioConfig many = cfg;
  many.sharded_ticks = 2 + static_cast<int>(cfg.seed % 3);  // 2..4
  const RunFingerprint a = fingerprint(one);
  const RunFingerprint b = fingerprint(many);
  if (a.result.trace_json != b.result.trace_json) {
    return OracleResult::fail(
        "sharded S=1 vs S=" + std::to_string(many.sharded_ticks) +
        " diverged: trace " + hex(a.trace_digest) + " vs " +
        hex(b.trace_digest));
  }
  if (a.result_json != b.result_json) {
    return OracleResult::fail(
        "sharded S=1 vs S=" + std::to_string(many.sharded_ticks) +
        " diverged: result " + hex(a.result_digest) + " vs " +
        hex(b.result_digest));
  }
  return OracleResult::ok();
}

OracleResult check_journal_overhead_bounded(const sim::ScenarioConfig& cfg) {
  // Without crashes (nothing to replay, nothing to lose) the journal is
  // pure overhead, and a *bounded* one: the journaled run must still serve
  // the workload, and a completed workload completes exactly once either
  // way (the journal may shift which reads a proxy tier absorbs).
  sim::ScenarioConfig off = cfg;
  off.faults = crash_free(cfg.faults);
  off.journal = {};
  sim::ScenarioConfig on = off;
  on.journal = cfg.journal;
  on.journal.enabled = true;
  // A pathologically tight un-flushed cap measures backpressure stalls, not
  // steady-state overhead; keep the cap off the floor.
  on.journal.max_unflushed_entries =
      std::max<std::uint64_t>(on.journal.max_unflushed_entries, 2000);

  const sim::ScenarioResult r_off = sim::run_scenario(off);
  const sim::ScenarioResult r_on = sim::run_scenario(on);
  if (r_on.journal.appends == 0) {
    return OracleResult::fail("journaled run appended no entries");
  }
  const bool off_done = r_off.clients_done == r_off.n_clients;
  const bool on_done = r_on.clients_done == r_on.n_clients;
  if (off_done && on_done && r_on.completed_ops() != r_off.completed_ops()) {
    std::ostringstream os;
    os << "journal on/off disagree on completed workload: "
       << r_on.completed_ops() << " vs " << r_off.completed_ops()
       << " ops completed";
    return OracleResult::fail(os.str());
  }
  const auto floor_served = static_cast<std::uint64_t>(
      0.7 * static_cast<double>(r_off.total_served));
  if (r_on.total_served < floor_served) {
    std::ostringstream os;
    os << "journal overhead unbounded: " << r_on.total_served << " vs "
       << r_off.total_served << " ops served (floor " << floor_served << ")";
    return OracleResult::fail(os.str());
  }
  return OracleResult::ok();
}

OracleResult check_elasticity_conserves_completed_ops(
    const sim::ScenarioConfig& cfg) {
  // Elasticity changes *when* capacity exists, never *what* the clients
  // get done: a workload that completes on the full fixed pool and also
  // completes on the elastic pool must have completed exactly once
  // either way — no ops lost in a drain handoff, none double-counted
  // across an activation's replay window.  Ranks coming and going shift
  // which reads a proxy tier absorbs, so the sum is what is conserved.
  sim::ScenarioConfig off = cfg;
  off.autoscaler = {};
  sim::ScenarioConfig on = off;
  on.autoscaler = cfg.autoscaler;
  if (!on.autoscaler.enabled) {
    // The generator only arms the autoscaler on a fraction of configs;
    // synthesize an agile policy (seed-derived floor, short streaks) so
    // the oracle bites on every config it is pointed at.
    on.autoscaler.enabled = true;
    on.autoscaler.initial_active = 1 + cfg.seed % cfg.n_mds;
    on.autoscaler.min_ranks = 1;
    on.autoscaler.hysteresis_epochs = 1;
    on.autoscaler.cooldown_epochs = 1;
  }

  const sim::ScenarioResult r_off = sim::run_scenario(off);
  const sim::ScenarioResult r_on = sim::run_scenario(on);
  if (r_off.elasticity.activations != 0 ||
      r_off.elasticity.retirements != 0) {
    std::ostringstream os;
    os << "autoscaler-disabled run scaled anyway: "
       << r_off.elasticity.activations << " up / "
       << r_off.elasticity.retirements << " down";
    return OracleResult::fail(os.str());
  }
  if (r_on.total_served == 0) {
    return OracleResult::fail("elastic run served nothing");
  }
  const bool off_done = r_off.clients_done == r_off.n_clients;
  const bool on_done = r_on.clients_done == r_on.n_clients;
  if (!off_done || !on_done) {
    // A smaller starting pool may legitimately still be catching up when
    // max_ticks lands; conservation is only defined over completed work.
    return OracleResult::skip("workload did not complete on both pools");
  }
  if (r_on.completed_ops() != r_off.completed_ops()) {
    std::ostringstream os;
    os << "elasticity lost completed ops: " << r_on.completed_ops()
       << " completed elastic vs " << r_off.completed_ops() << " fixed";
    return OracleResult::fail(os.str());
  }
  return OracleResult::ok();
}

OracleResult check_capacity_monotonicity(const sim::ScenarioConfig& cfg) {
  // More hardware must not lose work: with double the per-MDS capacity the
  // cluster completes at least (almost — balancing dynamics shift) as many
  // ops in the same window, and a workload that completed keeps completing.
  sim::ScenarioConfig hi = cfg;
  hi.mds_capacity_iops = cfg.mds_capacity_iops * 2.0;
  const sim::ScenarioResult base = sim::run_scenario(cfg);
  const sim::ScenarioResult doubled = sim::run_scenario(hi);
  const bool base_done = base.clients_done == base.n_clients;
  const bool doubled_done = doubled.clients_done == doubled.n_clients;
  if (base_done && !doubled_done) {
    std::ostringstream os;
    os << "doubling capacity lost completions: " << doubled.clients_done
       << "/" << doubled.n_clients << " clients done (was "
       << base.clients_done << "/" << base.n_clients << ")";
    return OracleResult::fail(os.str());
  }
  const auto floor_completed = static_cast<std::uint64_t>(
      0.95 * static_cast<double>(base.completed_ops()));
  if (doubled.completed_ops() < floor_completed) {
    std::ostringstream os;
    os << "doubling capacity lost throughput: " << doubled.completed_ops()
       << " vs " << base.completed_ops() << " ops completed (floor "
       << floor_completed << ")";
    return OracleResult::fail(os.str());
  }
  return OracleResult::ok();
}

OracleResult check_cross_balancer_conservation(
    const sim::ScenarioConfig& cfg) {
  // The workload defines total demand; the balancer only decides *where*
  // ops complete (which MDS, or the proxy tier).  Every balancer that runs
  // the workload to completion must therefore agree exactly on total ops
  // completed.
  struct Done {
    sim::BalancerKind kind;
    std::uint64_t completed;
  };
  std::vector<Done> done;
  for (const sim::BalancerKind kind :
       {sim::BalancerKind::kVanilla, sim::BalancerKind::kGreedySpill,
        sim::BalancerKind::kLunule, sim::BalancerKind::kDirHash}) {
    sim::ScenarioConfig c = cfg;
    c.balancer = kind;
    const sim::ScenarioResult r = sim::run_scenario(c);
    if (r.clients_done == r.n_clients) {
      done.push_back({kind, r.completed_ops()});
    }
  }
  if (done.size() < 2) {
    return OracleResult::skip(
        "fewer than two balancers completed the workload");
  }
  for (const Done& d : done) {
    if (d.completed != done.front().completed) {
      std::ostringstream os;
      os << "balancers completed different op counts: "
         << sim::balancer_name(done.front().kind) << "="
         << done.front().completed << " vs " << sim::balancer_name(d.kind)
         << "=" << d.completed;
      return OracleResult::fail(os.str());
    }
  }
  return OracleResult::ok();
}

OracleResult check_proxy_quiescent_equivalence(
    const sim::ScenarioConfig& cfg) {
  // A proxy tier that never promotes anything must be a perfect no-op:
  // with the promote threshold pushed beyond any reachable per-dir rate,
  // the armed run and the disabled run trace byte-identically — the tier's
  // mere presence (hooks in try_serve, epoch close, fault paths) costs
  // nothing observable.
  sim::ScenarioConfig off = cfg;
  off.proxy = {};
  sim::ScenarioConfig on = off;
  on.proxy.enabled = true;
  on.proxy.promote_threshold_iops = 1e18;  // unreachable
  const RunFingerprint a = fingerprint(off);
  const RunFingerprint b = fingerprint(on);
  if (a.result.trace_json != b.result.trace_json) {
    return OracleResult::fail("quiescent proxy diverged: trace " +
                              hex(a.trace_digest) + " vs " +
                              hex(b.trace_digest));
  }
  if (a.result_json != b.result_json) {
    return OracleResult::fail("quiescent proxy diverged: result " +
                              hex(a.result_digest) + " vs " +
                              hex(b.result_digest));
  }
  return OracleResult::ok();
}

OracleResult check_proxy_conserves_completed_ops(
    const sim::ScenarioConfig& cfg) {
  // The tier moves reads out of the MDSs, it never invents or loses them:
  // when the workload completes both ways, every op the proxy absorbed is
  // an op the MDSs did not serve, exactly.
  sim::ScenarioConfig off = cfg;
  off.proxy = {};
  sim::ScenarioConfig on = off;
  on.proxy = cfg.proxy;
  if (!on.proxy.enabled) {
    // The generator only arms the proxy on a fraction of configs;
    // synthesize an aggressive policy so the oracle bites everywhere.
    on.proxy.enabled = true;
    on.proxy.lease_ticks = static_cast<Tick>(5 + cfg.seed % 30);
    on.proxy.promote_threshold_iops = cfg.mds_capacity_iops * 0.05;
    on.proxy.max_promoted = 8;
  }

  const sim::ScenarioResult r_off = sim::run_scenario(off);
  const sim::ScenarioResult r_on = sim::run_scenario(on);
  if (r_off.proxy.reads_absorbed != 0 || r_off.proxy.lease_grants != 0) {
    std::ostringstream os;
    os << "proxy-disabled run absorbed anyway: "
       << r_off.proxy.reads_absorbed << " reads / "
       << r_off.proxy.lease_grants << " grants";
    return OracleResult::fail(os.str());
  }
  if (r_on.total_served == 0) {
    return OracleResult::fail("proxied run served nothing");
  }
  const bool off_done = r_off.clients_done == r_off.n_clients;
  const bool on_done = r_on.clients_done == r_on.n_clients;
  if (!off_done || !on_done) {
    return OracleResult::skip("workload did not complete on both sides");
  }
  if (r_on.completed_ops() != r_off.completed_ops()) {
    std::ostringstream os;
    os << "proxy broke op conservation: " << r_on.total_served
       << " MDS-served + " << r_on.proxy.reads_absorbed << " absorbed != "
       << r_off.total_served << " baseline";
    return OracleResult::fail(os.str());
  }
  return OracleResult::ok();
}

OracleResult check_proxy_coherence_under_faults(
    const sim::ScenarioConfig& cfg) {
  // Force the tier on while keeping the generated fault plan: crashes,
  // drains, and migrations must leave the lease book coherent.  The hard
  // part (no read served off a revoked lease) is checked structurally by
  // invariant section 8 at every epoch close when LUNULE_VALIDATE is on;
  // here we assert the counter algebra that must hold regardless.
  sim::ScenarioConfig on = cfg;
  if (!on.proxy.enabled) {
    on.proxy.enabled = true;
    on.proxy.lease_ticks = static_cast<Tick>(5 + cfg.seed % 30);
    on.proxy.promote_threshold_iops = cfg.mds_capacity_iops * 0.05;
    on.proxy.max_promoted = 8;
  }
  const sim::ScenarioResult r = sim::run_scenario(on);
  if (r.proxy.reads_absorbed > 0 && r.proxy.lease_grants == 0) {
    return OracleResult::fail("reads absorbed without a single lease grant");
  }
  if (r.proxy.lease_grants > 0 && r.proxy.promotions == 0) {
    return OracleResult::fail("leases granted without a single promotion");
  }
  if (r.proxy.demotions > r.proxy.promotions) {
    std::ostringstream os;
    os << "more demotions than promotions: " << r.proxy.demotions << " vs "
       << r.proxy.promotions;
    return OracleResult::fail(os.str());
  }
  if (r.proxy.lease_recalls > r.proxy.lease_grants) {
    std::ostringstream os;
    os << "more recalls than grants: " << r.proxy.lease_recalls << " vs "
       << r.proxy.lease_grants;
    return OracleResult::fail(os.str());
  }
  if (r.total_served == 0) {
    return OracleResult::fail("proxied faulty run served nothing");
  }
  return OracleResult::ok();
}

OracleResult check_async_crash_prefix_consistent(
    const sim::ScenarioConfig& cfg) {
  // The async journal's two safety claims, fuzzed over the whole scenario
  // space.  First: with no journal the async knob is inert — arming it on a
  // journal-free config must trace byte-identically to leaving it off (the
  // mode may not leak through counters, costs, or events it has no journal
  // to hang off).  Second: on an armed async run that actually crashes,
  // replay reconstructs a prefix-consistent state — every acknowledged op
  // is either durably replayed or reported inside the documented loss
  // window, and no durable entry ever depends on a lost one.
  sim::ScenarioConfig inert = cfg;
  inert.journal = {};
  sim::ScenarioConfig inert_async = inert;
  inert_async.journal.async_mode = true;
  const RunFingerprint qa = fingerprint(inert);
  const RunFingerprint qb = fingerprint(inert_async);
  if (qa.result.trace_json != qb.result.trace_json) {
    return OracleResult::fail("async_mode leaked without a journal: trace " +
                              hex(qa.trace_digest) + " vs " +
                              hex(qb.trace_digest));
  }
  if (qa.result_json != qb.result_json) {
    return OracleResult::fail("async_mode leaked without a journal: result " +
                              hex(qa.result_digest) + " vs " +
                              hex(qb.result_digest));
  }

  sim::ScenarioConfig on = cfg;
  on.journal.enabled = true;
  on.journal.async_mode = true;
  bool has_crash = false;
  for (const faults::FaultEvent& e : on.faults.events) {
    if (e.kind == faults::FaultKind::kCrash ||
        e.kind == faults::FaultKind::kPermanentLoss) {
      has_crash = true;
    }
  }
  if (!has_crash && on.n_mds >= 2) {
    // The generated plan may be crash-free; inject one mid-run so the
    // replay path is exercised on (nearly) every config.
    Rng rng = Rng(cfg.seed).fork(0xa51c);
    const Tick lo = on.epoch_ticks;
    const Tick hi = std::max<Tick>(lo + 1, on.max_ticks - 10);
    const auto at = static_cast<Tick>(
        lo + static_cast<Tick>(rng.next_below(
                 static_cast<std::uint64_t>(hi - lo))));
    on.faults.crash(static_cast<MdsId>(rng.next_below(on.n_mds)), at,
                    static_cast<Tick>(10 + rng.next_below(40)));
    on.faults.validate(on.n_mds, on.max_ticks);
  }

  const sim::ScenarioResult r = sim::run_scenario(on);
  if (r.total_served == 0) {
    return OracleResult::fail("async journaled run served nothing");
  }
  if (r.faults.dependency_violations != 0) {
    std::ostringstream os;
    os << "replay found " << r.faults.dependency_violations
       << " durable entries depending on lost ones";
    return OracleResult::fail(os.str());
  }
  if (r.journal.async_acked != r.journal.appends) {
    std::ostringstream os;
    os << "async mode acknowledged " << r.journal.async_acked
       << " entries but appended " << r.journal.appends
       << " (ack-at-apply must cover every append)";
    return OracleResult::fail(os.str());
  }
  if (r.faults.acked_lost_entries != r.faults.lost_entries) {
    std::ostringstream os;
    os << "async loss window mis-accounted: " << r.faults.acked_lost_entries
       << " acked-lost vs " << r.faults.lost_entries << " lost entries";
    return OracleResult::fail(os.str());
  }
  return OracleResult::ok();
}

constexpr Oracle kOracles[] = {
    {"same_seed_determinism",
     "two identical runs produce byte-identical result + trace JSON",
     &check_same_seed_determinism},
    {"single_mds_no_migrations",
     "with one MDS no balancer migrates or forwards anything",
     &check_single_mds_no_migrations},
    {"rank_relabel_invariance",
     "IF and policy-env statistics are invariant under load permutations",
     &check_rank_relabel_invariance},
    {"shard_equivalence",
     "sharded tick engine traces byte-identically for any shard count",
     &check_shard_equivalence},
    {"journal_overhead_bounded",
     "crash-free journaling conserves completed work at bounded overhead",
     &check_journal_overhead_bounded},
    {"elasticity_conserves_completed_ops",
     "elastic and fixed pools serve a completed workload identically",
     &check_elasticity_conserves_completed_ops},
    {"capacity_monotonicity",
     "doubling per-MDS capacity never loses completions or throughput",
     &check_capacity_monotonicity},
    {"cross_balancer_conservation",
     "balancers completing the same workload agree on total ops served",
     &check_cross_balancer_conservation},
    {"proxy_quiescent_equivalence",
     "a proxy tier that never promotes traces byte-identically to none",
     &check_proxy_quiescent_equivalence},
    {"proxy_conserves_completed_ops",
     "MDS-served + proxy-absorbed ops equal the proxy-free baseline",
     &check_proxy_conserves_completed_ops},
    {"proxy_coherence_under_faults",
     "lease counter algebra holds under random fault plans",
     &check_proxy_coherence_under_faults},
    {"async_crash_prefix_consistent",
     "async journal crashes replay to a prefix-consistent state",
     &check_async_crash_prefix_consistent},
};

}  // namespace

std::span<const Oracle> all_oracles() { return kOracles; }

const Oracle* find_oracle(std::string_view name) {
  for (const Oracle& o : kOracles) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

std::uint64_t digest64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace lunule::proptest
