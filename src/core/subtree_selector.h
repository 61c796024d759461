// The workload-aware Subtree Selector (Sections 3.3 and 4.1).
//
// Given a migration decision <exporter, amount>, the selector ranks the
// exporter's subtrees by migration index (Eq. 4, converted to predicted
// IOPS) and picks a set whose aggregate prediction matches the requested
// amount, via the paper's three search paths:
//
//   (1) a single subtree whose mIndex is approximately equal to the amount
//       (within a 10% tolerance);
//   (2) otherwise, a subtree whose mIndex exceeds the amount is *split* —
//       the directory is fragmented and fragments are taken until the
//       amount is covered;
//   (3) otherwise, a minimal set of subtrees whose mIndex values sum to
//       roughly the demand (greedy, largest first).
//
// All three paths read the candidates in one total order (predicted IOPS
// descending, ties by balancer::ref_tie_before), but none sorts them:
// paths 1 and 2 each take one extreme of a linear scan, and path 3 pops a
// heap only until it stops.  An exporter owns tens of thousands of units at
// 100k directories while a decision takes at most max_subtrees of them.
//
// Selection is additionally bounded by the per-epoch migration capacity in
// *inodes* (what the Migrator can actually stream within one epoch), which
// keeps the spatial path from queueing thousands of cold directories at
// once — the exact over-migration failure the vanilla balancer exhibits.
#pragma once

#include <cstdint>
#include <vector>

#include "balancer/candidates.h"
#include "core/pattern_analyzer.h"
#include "fs/namespace_tree.h"

namespace lunule::core {

struct SelectorParams {
  /// Relative tolerance for the "approximately equal" search path.
  double tolerance = 0.10;
  /// Fragmentation depth applied when splitting a too-large directory
  /// (2^split_bits new fragments; deep enough that a split fragment of
  /// even a cluster-saturating directory can be frozen and exported).
  std::uint8_t split_bits = 5;
  /// Candidates currently serving more than this rate (IOPS) are skipped
  /// in the whole-unit paths — the Migrator could not freeze them (they
  /// would abort) — and handled by the split path instead.
  double hot_skip_iops = 300.0;
  /// Directories below this population are not worth fragmenting.
  /// (CephFS's own split threshold is in the tens of thousands; this value
  /// is scaled to the simulator's reduced namespace sizes.)
  std::uint32_t min_files_to_fragment = 24;
  /// Maximal inodes selected per decision (per-epoch migration capacity).
  std::uint64_t inode_cap = 40000;
  /// Maximal number of subtrees per decision (bounds export-queue growth).
  std::size_t max_subtrees = 64;
  /// Seconds covered by the cutting windows (converts mIndex to IOPS).
  double window_seconds = 60.0;
};

/// One selected unit plus its predicted IOPS contribution and the Eq. 4
/// terms that produced it (so traces show *why* a subtree was picked).
struct Selection {
  fs::SubtreeRef ref;
  double predicted_iops = 0.0;
  std::uint64_t inodes = 0;
  MigrationIndex index;
};

class SubtreeSelector {
 public:
  /// Aborts on a negative tolerance (path 3 relies on 1 + tolerance > 0).
  explicit SubtreeSelector(SelectorParams params);

  /// Chooses subtrees owned by `exporter` with aggregate predicted load of
  /// about `amount_iops`.  May fragment directories (hence the mutable
  /// tree).  Returns an empty vector when the exporter has no candidate
  /// with a positive migration index.  `inode_budget_override` (when
  /// non-zero) replaces params().inode_cap for this call — the balancer
  /// passes the *remaining* migration-pipeline capacity so in-flight
  /// transfers and the new selection together never exceed one epoch's
  /// migration throughput.  `live_dirs` (optional) restricts candidate
  /// enumeration, e.g. to the recorder's window-live set: a unit with zero
  /// window sums has a zero migration index and can never be selected, and
  /// the selection order is total, so the restriction (and the list's
  /// order) does not change decisions.
  [[nodiscard]] std::vector<Selection> select(
      fs::NamespaceTree& tree, MdsId exporter, double amount_iops,
      std::uint64_t inode_budget_override = 0,
      const std::vector<DirId>* live_dirs = nullptr) const;

  [[nodiscard]] const SelectorParams& params() const { return params_; }

 private:
  /// One scored candidate, reduced to what the order and the final
  /// Selection need: the predicted IOPS, its directory's hashed tie rank
  /// (computed once, not inside every comparison), the unit, and its
  /// position in cand_scratch_.
  struct ScoredKey {
    double pred = 0.0;
    std::uint64_t rank = 0;
    DirId dir = kNoDir;
    FragId frag = kWholeDir;
    std::uint32_t index = 0;
  };
  /// The selector's total order: predicted IOPS descending, then
  /// balancer::ref_tie_before (hashed directory rank, directory id,
  /// fragment id) on the cached rank.  Units are distinct, so no two keys
  /// tie.
  static bool ranks_before(const ScoredKey& a, const ScoredKey& b);

  SelectorParams params_;
  /// Enumeration and scoring scratch reused across calls (allocation
  /// hygiene on the per-epoch hot path).
  mutable std::vector<balancer::Candidate> cand_scratch_;
  mutable std::vector<ScoredKey> key_scratch_;
};

}  // namespace lunule::core
