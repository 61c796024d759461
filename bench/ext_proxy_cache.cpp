// Extension bench: the hotspot-absorbing proxy cache tier on a thundering
// herd.
//
// A celebrity file inside one shared directory is an *indivisible* hotspot:
// migration moves it whole (and helps nothing), dirfrag splitting divides a
// directory that is hot in a single spot, and even read replication only
// multiplies the serving ranks by a small constant.  The proxy tier
// (docs/CACHING.md) attacks the load itself — flash-crowd directories are
// promoted into a lease-based cache and repeated reads complete without
// touching any MDS until a mutation, split, migration, crash, or drain
// recalls the lease.
//
// Five runs of the same FlashCrowd fleet (90% of every client's traffic on
// one shared hot directory, Zipf-skewed within it):
//
//   Lunule              — balancer only (the hotspot is unsplittable);
//   Lunule+repl         — plus hot-dirfrag read replication;
//   Lunule+proxy        — plus the proxy tier;
//   Lunule crash        — balancer only, one rank crashing mid-crowd;
//   Lunule+proxy crash  — the tier riding out the same crash.
//
// The [SHAPE-CHECK] gates encode the acceptance bar: the tier absorbs a
// measurable share of MDS-served reads at equal total completed ops and
// equal-or-better tail JCT, and keeps doing so across a crash (run with
// LUNULE_VALIDATE=1 to additionally assert lease coherence every epoch).
#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "common/table.h"

namespace lunule {
namespace {

constexpr double kCrashFraction = 1.0 / 3.0;  // crash lands mid-crowd

struct Variant {
  const char* label;
  bool replication = false;
  bool proxy = false;
  bool crash = false;
};

sim::ScenarioConfig make_config(const bench::BenchOptions& opts,
                                const Variant& v) {
  sim::ScenarioConfig cfg = opts.config(sim::WorkloadKind::kFlashCrowd,
                                        sim::BalancerKind::kLunule);
  cfg.n_mds = 4;
  if (v.replication) {
    cfg.replicate_threshold_iops = cfg.mds_capacity_iops * 0.3;
  }
  if (v.proxy) {
    cfg.proxy.enabled = true;
    cfg.proxy.lease_ticks = 20;
    cfg.proxy.promote_threshold_iops = cfg.mds_capacity_iops * 0.1;
    cfg.proxy.max_promoted = 4;
  }
  if (v.crash) {
    const auto at = static_cast<Tick>(
        static_cast<double>(opts.ticks) * kCrashFraction);
    cfg.faults.crash(/*mds=*/1, at, /*duration=*/30);
  }
  return cfg;
}

double tail_jct(const sim::ScenarioResult& r) {
  double tail = 0.0;
  for (const double jct : r.jct_seconds) tail = std::max(tail, jct);
  return tail;
}

int run(int argc, char** argv) {
  bench::BenchOptions opts = bench::BenchOptions::parse(
      argc, argv, /*scale=*/0.05, /*ticks=*/900, /*clients=*/32);
  sim::ShapeChecker checks;

  const Variant variants[] = {
      {"Lunule"},
      {"Lunule+repl", /*replication=*/true},
      {"Lunule+proxy", /*replication=*/false, /*proxy=*/true},
      {"Lunule crash", false, false, /*crash=*/true},
      {"Lunule+proxy crash", false, /*proxy=*/true, /*crash=*/true},
  };
  sim::ScenarioResult results[std::size(variants)];
  TablePrinter table({"Variant", "MDS-served", "absorbed", "grants",
                      "recalls", "done", "tail JCT", "mean IF"});
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    results[i] = sim::run_scenario(make_config(opts, variants[i]));
    const sim::ScenarioResult& r = results[i];
    opts.dump_trace(r);
    table.add_row({variants[i].label, TablePrinter::fmt(r.total_served),
                   TablePrinter::fmt(r.proxy.reads_absorbed),
                   TablePrinter::fmt(r.proxy.lease_grants),
                   TablePrinter::fmt(r.proxy.lease_recalls),
                   TablePrinter::fmt(r.clients_done) + "/" +
                       TablePrinter::fmt(r.n_clients),
                   TablePrinter::fmt(tail_jct(r), 0) + " s",
                   TablePrinter::fmt(r.metrics.mean_if())});
  }

  const sim::ScenarioResult& base = results[0];
  const sim::ScenarioResult& repl = results[1];
  const sim::ScenarioResult& prox = results[2];
  const sim::ScenarioResult& crash_base = results[3];
  const sim::ScenarioResult& crash_prox = results[4];

  for (std::size_t i = 0; i < std::size(variants); ++i) {
    checks.expect(results[i].clients_done == results[i].n_clients,
                  std::string(variants[i].label) +
                      ": every client finishes");
  }
  checks.expect(base.proxy.reads_absorbed == 0 &&
                    repl.proxy.reads_absorbed == 0,
                "proxy-free variants absorb nothing (control)");
  checks.expect(prox.proxy.reads_absorbed > 0,
                "the tier absorbs reads on the thundering herd");
  checks.expect(prox.total_served < base.total_served,
                "absorbed reads come off the MDS-served count");
  checks.expect(
      prox.completed_ops() == base.completed_ops(),
      "MDS-served + absorbed equals the tier-free total (conservation)");
  checks.expect(tail_jct(prox) <= tail_jct(base) * 1.02,
                "...at equal-or-better tail JCT");
  checks.expect(crash_prox.proxy.reads_absorbed > 0,
                "the tier keeps absorbing across a mid-crowd crash");
  checks.expect(crash_prox.proxy.lease_recalls > 0,
                "the crash (or its migrations) recalled at least one lease");
  checks.expect(crash_prox.completed_ops() == crash_base.completed_ops(),
                "conservation holds under the crash plan too");

  if (opts.report.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Thundering herd vs the proxy cache tier (FlashCrowd "
                "workload, Lunule balancer, 4 ranks)");
  }
  return bench::finish(checks);
}

}  // namespace
}  // namespace lunule

int main(int argc, char** argv) { return lunule::run(argc, argv); }
