// Per-access statistics recording ("Stats recording" of Section 4.1).
//
// On every metadata operation the owning dirfrag's counters are updated:
//   * visits (feeding l_t and the vanilla heat counter),
//   * first visits — accesses to never-before-visited inodes (feeding l_s
//     and the spatial inclination beta),
//   * recurrent visits — re-accesses within the recent cutting windows
//     (feeding the temporal inclination alpha), and
//   * sibling credits — on a first visit, one sibling directory receives an
//     l_s credit with a configurable probability, implementing the paper's
//     "strong access correlations between sibling subtrees" heuristic.
//
// Sibling-credit randomness is *stateless*: the draws for a first visit to
// (dir, file) come from a HashStream keyed on (seed, dir, file).  A first
// visit fires exactly once per file lifetime, so the key is consumed once,
// and the outcome never depends on how many draws other accesses made —
// which is what lets the sharded tick engine evaluate credits on any rank
// in any order and still produce one canonical result.
//
// Sharded operation: during a shard phase each rank records into its own
// RecorderLane — counter updates on the owning fragment are applied
// in place (the fragment is rank-local), while sibling credits and
// touched-directory marks (which touch foreign dirs / shared recorder
// state) are escrowed in the lane and applied by merge_lane() in rank
// order during the serial merge.
//
// At each epoch boundary close_epoch() pushes each touched fragment's
// open-epoch record into its cutting windows and applies the exponential
// heat decay that the CephFS-Vanilla balancer relies on.  Only the
// directories actually touched during the epoch are folded; everything
// else catches up by delta on first read (FragStats::advance_to replays the
// eager per-close sequence bit-identically), and warm directories expire
// from the active set via the per-directory dead-epoch prediction instead
// of being rescanned every close.  A second prediction, over every field
// of the cutting windows, bounds the window-live set: the active
// directories that can still carry a non-zero window sum, which is all
// that Lunule's mIndex and hottest-shard rules can select from (a
// heat-only tail stays active for the heat-share rules).
// The invariant checker audits the clock, the expiry and the window-live
// set at every epoch under LUNULE_VALIDATE.  The per-directory bookkeeping
// (touched stamp, both predictions, the active flag) lives in flat arrays
// indexed by DirId, so the fold and both filters never load a Directory.
// The fold can run on a WorkerPool: directories are chunked and folded in
// parallel (per-directory state is disjoint), so the result is identical
// for any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/worker_pool.h"
#include "fs/namespace_tree.h"

namespace lunule::mds {

struct RecorderParams {
  /// Probability that a first visit credits one sibling subtree's l_s.
  double sibling_credit_prob = 0.3;
  /// Of those credits, the fraction granted to the *next* sibling in
  /// directory order (spatial locality in file systems is largely
  /// namespace-order: scans proceed in readdir order); the rest goes to a
  /// uniformly random sibling.
  double sibling_adjacent_fraction = 0.5;
  /// Per-epoch multiplicative decay of the vanilla heat counter.
  double heat_decay = 0.8;
};

struct AccessOutcome {
  bool first_visit = false;
  bool recurrent = false;
};

/// One entry of the top-k hot-directory query.
struct HotDir {
  DirId dir = kNoDir;
  /// Visits per second over the last *closed* epoch, summed over the
  /// directory's fragments.
  double rate_iops = 0.0;
};

/// Per-rank escrow of recorder effects that touch shared state; filled
/// during a shard phase, drained by merge_lane() in rank order.
struct RecorderLane {
  struct Credit {
    DirId sibling;
    FragId frag;
  };
  /// Escrowed sibling credits (the target may live on a foreign rank).
  std::vector<Credit> credits;
  /// Directories touched by this rank (consecutive duplicates elided; the
  /// serial mark_touched dedups the rest via the touched-epoch stamp).
  std::vector<DirId> touched;
};

class AccessRecorder {
 public:
  AccessRecorder(fs::NamespaceTree& tree, RecorderParams params, Rng rng);

  /// Records a read/lookup access to file `i` of directory `d`.  With a
  /// lane, shared-state effects are escrowed instead of applied.
  AccessOutcome record(DirId d, FileIndex i, EpochId epoch,
                       RecorderLane* lane = nullptr) {
    fs::FileState& file = tree_.dir(d).file(i);

    AccessOutcome out;
    // Only the first op on a file per epoch is a logical visit; the rest of
    // the lookup/getattr/open chain lands in the same epoch and carries no
    // locality information.
    const bool logical_visit =
        file.last_access_epoch != static_cast<std::uint32_t>(epoch);
    out.first_visit = !file.visited();
    out.recurrent =
        !out.first_visit && file.recurrent_at(epoch, fs::kCuttingWindows);
    file.last_access_epoch = static_cast<std::uint32_t>(epoch);

    fs::FragStats& frag = tree_.frag(d, tree_.frag_of(d, i));
    tree_.advance_frag_stats(frag);
    ++frag.open.visits;
    frag.heat += 1.0;
    if (logical_visit) ++frag.open.file_visits;
    if (out.first_visit) {
      ++frag.open.first_visits;
      ++frag.visited_files;
      credit_sibling(d, i, lane);
    }
    if (logical_visit && out.recurrent) ++frag.open.recurrent;
    mark_touched(d, lane);
    return out;
  }

  /// Records a create of file `i` (always a first visit).
  void record_create(DirId d, FileIndex i, EpochId epoch,
                     RecorderLane* lane = nullptr) {
    tree_.dir(d).file(i).last_access_epoch = static_cast<std::uint32_t>(epoch);

    fs::FragStats& frag = tree_.frag(d, tree_.frag_of(d, i));
    tree_.advance_frag_stats(frag);
    ++frag.open.visits;
    ++frag.open.file_visits;
    frag.heat += 1.0;
    ++frag.open.first_visits;
    ++frag.open.creates;
    ++frag.visited_files;
    mark_touched(d, lane);
  }

  /// Applies one rank's escrowed effects; call once per lane, in ascending
  /// rank order, from the serial merge.
  void merge_lane(RecorderLane& lane);

  /// Marks `d` touched in the open epoch without recording an access, for
  /// callers that write its FragStats directly: the next close folds it
  /// and it joins the active set (appended; sorted at the next close).
  void touch(DirId d) { mark_touched(d); }

  /// Folds open-epoch accumulators into the windows, decays heat, ticks
  /// the tree's statistics clock, expires drained directories and rebuilds
  /// the window-live set.  With a pool, the per-directory folds run chunked
  /// across its workers (result identical for any worker count).
  void close_epoch(WorkerPool* pool = nullptr);

  /// Directories with any live statistics (heat or a liveness window;
  /// shrinks as stats age): a prefix sorted ascending at every close, then
  /// the directories that joined since, in touch order.
  [[nodiscard]] const std::vector<DirId>& active_dirs() const {
    return active_;
  }

  [[nodiscard]] bool is_active(DirId d) const {
    return static_cast<std::size_t>(d) < is_active_.size() &&
           is_active_[static_cast<std::size_t>(d)] != 0;
  }

  /// The window-live set, a subset of active_dirs(): the active
  /// directories whose window bound (window_dead_epoch) lies past the
  /// clock, plus every directory touched in the open epoch.  A prefix
  /// sorted ascending at every close, then the directories touched since,
  /// in touch order.  Every unit outside it has all-zero window sums, so
  /// its migration index and last-epoch visits are zero; only its heat
  /// may still be live.
  [[nodiscard]] const std::vector<DirId>& window_live_dirs() const {
    return window_live_;
  }

  /// Membership in window_live_dirs(), in O(1).
  [[nodiscard]] bool is_window_live(DirId d) const;

  // -- Per-directory bookkeeping (flat arrays indexed by DirId) ---------
  /// The open epoch in which `d` was last marked touched; -1 if never.
  [[nodiscard]] EpochId touched_epoch(DirId d) const {
    return d < touched_epoch_.size() ? touched_epoch_[d] : -1;
  }
  /// Clock value at which every fragment of `d` is predicted to be fully
  /// drained (FragStats::compute_dead_epoch, kept as a running max over
  /// the folds): expiry from the active set needs no fragment read.
  [[nodiscard]] EpochId stats_dead_epoch(DirId d) const {
    return d < bounds_.size() ? bounds_[d].stats_dead : 0;
  }
  /// Clock value from which every cutting window of `d` is predicted to be
  /// zero (FragStats::window_dead_epoch, kept as a running max): the
  /// window-live filter.
  [[nodiscard]] EpochId window_dead_epoch(DirId d) const {
    return d < bounds_.size() ? bounds_[d].window_dead : 0;
  }

  /// Visit rate (IOPS) of directory `d` over the last closed epoch: the
  /// most recent cutting-window sample summed over its fragments, divided
  /// by the epoch length.  0 for directories outside the active set.
  /// Non-const because lagging fragments catch up by delta on first read.
  [[nodiscard]] double last_epoch_rate(DirId d, double epoch_seconds);

  /// The `k` hottest active directories by last-epoch visit rate,
  /// descending, ties broken by the smaller dir id — a total order, so the
  /// answer is identical across runs, engines, and worker counts.  Shared
  /// by the proxy tier's promotion policy and the benches; zero-rate
  /// directories are never returned.
  [[nodiscard]] std::vector<HotDir> top_hot_dirs(std::size_t k,
                                                 double epoch_seconds);

  [[nodiscard]] const RecorderParams& params() const { return params_; }

 private:
  /// Marks `d` touched in the open epoch: escrowed in the lane during a
  /// shard phase, applied at once otherwise.
  void mark_touched(DirId d, RecorderLane* lane) {
    if (lane == nullptr) {
      mark_touched(d);
      return;
    }
    // Dup-tolerant escrow: consecutive marks for the same directory (the
    // common case — a client hammering one dir) are elided, the rest are
    // deduplicated by the serial path at merge.
    if (lane->touched.empty() || lane->touched.back() != d) {
      lane->touched.push_back(d);
    }
  }
  /// The serial mark: stamps `d`, queues it for the close and joins it to
  /// the active and window-live sets.
  void mark_touched(DirId d);
  void credit_sibling(DirId d, FileIndex i, RecorderLane* lane);
  /// Folds dirty_[lo, hi) for the closing epoch, prefetching ahead.
  void fold_range(std::size_t lo, std::size_t hi, EpochId closing);
  /// Folds one directory's fragments for the closing epoch.
  void fold_dir(DirId d, EpochId closing);

  fs::NamespaceTree& tree_;
  RecorderParams params_;
  /// Key base of the stateless sibling-credit streams.
  std::uint64_t credit_seed_;
  /// The active set: a prefix sorted at the last close, then the
  /// directories that joined since, in touch order.
  std::vector<DirId> active_;
  std::size_t sorted_prefix_ = 0;
  /// The window-live set, laid out like active_.
  std::vector<DirId> window_live_;
  /// Directories touched during the open epoch (deduplicated via
  /// touched_epoch_); the close folds exactly these.
  std::vector<DirId> dirty_;
  std::vector<DirId> keep_scratch_;  // reused across closes

  // Per-directory bookkeeping, indexed by DirId and grown together to the
  // tree's directory count on the first mark of a directory past the end.
  /// The two predictions a fold updates, side by side (one line to load).
  struct DirBounds {
    EpochId stats_dead = 0;
    EpochId window_dead = 0;
  };
  std::vector<EpochId> touched_epoch_;
  std::vector<DirBounds> bounds_;
  std::vector<std::uint8_t> is_active_;
};

}  // namespace lunule::mds
