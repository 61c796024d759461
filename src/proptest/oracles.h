// The metamorphic / differential oracle library.
//
// An oracle takes one generated ScenarioConfig and decides whether the
// simulator honors a cross-run relation that must hold *for every point of
// the scenario space* — the complement of the hand-picked fig/table configs
// the benches check.  Oracles re-run the scenario under controlled
// perturbations (a second identical run, a knob flipped, a balancer
// swapped, a capacity doubled) and compare:
//
//   same_seed_determinism      two identical runs produce byte-identical
//                              result + trace JSON
//   single_mds_no_migrations   with n_mds = 1 every balancer serves the
//                              whole workload without migrating/forwarding
//   rank_relabel_invariance    the decision substrate (imbalance factor,
//                              policy-env statistics) is invariant under
//                              permuting the per-rank load vector
//   shard_equivalence          the sharded tick engine traces
//                              byte-identically for any shard count
//   journal_overhead_bounded   a crash-free journaled run serves the same
//                              completed workload at bounded overhead
//   capacity_monotonicity      doubling per-MDS capacity never loses
//                              meaningful throughput or completions
//   cross_balancer_conservation balancers that complete the same workload
//                              agree exactly on total ops served
//   proxy_quiescent_equivalence an armed proxy tier that never promotes
//                              traces byte-identically to no tier at all
//   proxy_conserves_completed_ops MDS-served + proxy-absorbed ops equal
//                              the proxy-free baseline on completed runs
//   proxy_coherence_under_faults lease counter algebra (grants >= recalls,
//                              promotions >= demotions, absorbs imply
//                              grants) holds under random fault plans
//   async_crash_prefix_consistent async journal mode is inert without a
//                              journal, and a crashed async run replays to
//                              a prefix-consistent state: zero dependency
//                              violations, every append acknowledged, the
//                              loss window exactly the un-flushed backlog
//
// Every check is deterministic; a failure message carries enough digest /
// counter context to be actionable before shrinking even starts.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "sim/scenario.h"

namespace lunule::proptest {

struct OracleResult {
  bool passed = true;
  /// True when the relation does not apply to this config (e.g. the
  /// conservation oracle needs at least two balancers to finish the
  /// workload).  Skips count separately in the runner's summary.
  bool skipped = false;
  std::string message;

  static OracleResult ok() { return {}; }
  static OracleResult skip(std::string why) {
    return {.passed = true, .skipped = true, .message = std::move(why)};
  }
  static OracleResult fail(std::string why) {
    return {.passed = false, .skipped = false, .message = std::move(why)};
  }
};

struct Oracle {
  std::string_view name;
  std::string_view description;
  OracleResult (*check)(const sim::ScenarioConfig& cfg);
};

/// All registered oracles, in documentation order.
[[nodiscard]] std::span<const Oracle> all_oracles();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Oracle* find_oracle(std::string_view name);

/// FNV-1a 64-bit digest, used to compare traces cheaply and to print
/// actionable "digest A != digest B" failure messages.
[[nodiscard]] std::uint64_t digest64(std::string_view bytes);

}  // namespace lunule::proptest
