// Directory fragments (dirfrags) and their per-fragment load statistics.
//
// CephFS partitions large directories into power-of-two fragments by dentry
// hash so that a single huge directory can be spread over several MDSs.  We
// reproduce that: a Directory with frag_bits = k has 2^k fragments and file
// index i belongs to fragment (i & (2^k - 1)), i.e. a hash-like interleaved
// mapping.  Each fragment carries:
//   * an optional authority pin overriding the directory's subtree authority
//     (this is how both dirfrag migration and the Dir-Hash baseline's static
//     pinning are expressed), and
//   * the access statistics that balancers consume — the decayed popularity
//     ("heat") used by the CephFS-Vanilla policy, and the cutting-window
//     rings (visits / first visits / recurrent visits / sibling credits)
//     used by Lunule's Pattern Analyzer.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/assert.h"
#include "common/ring_buffer.h"
#include "common/types.h"

namespace lunule::fs {

/// Number of balancer epochs covered by the Pattern Analyzer's cutting
/// windows (the paper's "last N cutting windows").
inline constexpr std::size_t kCuttingWindows = 6;

/// Replica masks are a fixed-width bitmask over MDS ranks, so read
/// replication supports at most this many ranks.  MdsCluster validates the
/// cap whenever replication is enabled (a clear error instead of a silent
/// shift past the mask width).
inline constexpr std::size_t kMaxReplicaRanks = 64;

struct FragStats {
  // Field order is layout: everything from auth_pin through stats_epoch
  // fits the first 64 bytes.  Routing reads auth_pin / replica_mask and
  // AccessRecorder::record() touches the rest, so one op on a fragment
  // stays within one cache line's worth of bytes.

  /// Authority pin; kNoMds means "inherit the owning directory's authority".
  MdsId auth_pin = kNoMds;
  /// Files mapped to this fragment.
  std::uint32_t file_count = 0;
  /// Of those, how many have ever been visited.
  std::uint32_t visited_files = 0;

  // -- Current (open) epoch accumulators, folded into the rings at epoch
  //    close by AccessRecorder::close_epoch(). --
  /// Metadata operations this epoch (load proxy; several ops may target
  /// the same file — lookup/getattr/open chains).
  std::uint32_t visits_epoch = 0;
  /// Logical file visits this epoch: the first op on a file per epoch
  /// (the granularity of the paper's per-inode boolean queue).
  std::uint32_t file_visits_epoch = 0;
  std::uint32_t first_visits_epoch = 0;
  std::uint32_t recurrent_epoch = 0;
  std::uint32_t creates_epoch = 0;

  /// Read-replica holders (bitmask over MDS ranks, bit i = MDS-i).  CephFS
  /// replicates hot dirfrags to peers so reads spread without migration
  /// (mds_bal_replicate_threshold); writes still go to the authority.
  std::uint64_t replica_mask = 0;

  [[nodiscard]] bool replicated() const { return replica_mask != 0; }
  [[nodiscard]] bool replicated_on(MdsId m) const {
    LUNULE_CHECK(m >= 0 &&
                 static_cast<std::size_t>(m) < kMaxReplicaRanks);
    return (replica_mask >> static_cast<unsigned>(m)) & 1u;
  }

  /// CephFS-Vanilla's temporal popularity counter (exponentially decayed
  /// once per epoch).
  double heat = 0.0;

  /// Lifetime visit counter (reporting only).
  std::uint64_t total_visits = 0;

  // -- Lazy epoch advancement ------------------------------------------
  // Untouched fragments are not rotated at every epoch close; instead the
  // windows carry the epoch they are advanced through and catch up by
  // delta on first read.  `stats_epoch` is the open epoch whose
  // accumulators are currently live: the rings reflect every close before
  // it.  `dead_epoch` is the clock value at which the fragment's signal is
  // fully drained (all liveness windows evicted and heat flushed to zero),
  // predicted at fold time so the warm set can expire entries without
  // touching them.  stats_epoch is the last per-op field: every writer
  // compares it with the clock before accumulating.
  EpochId stats_epoch = 0;
  EpochId dead_epoch = 0;

  /// Open-epoch sibling credits (written on a sibling's first visit, not
  /// on this fragment's own ops).
  double sibling_credit_epoch = 0.0;

  // -- Closed-epoch cutting windows. --
  RingBuffer<std::uint32_t, kCuttingWindows> visits_window;
  RingBuffer<std::uint32_t, kCuttingWindows> file_visits_window;
  RingBuffer<std::uint32_t, kCuttingWindows> first_visits_window;
  RingBuffer<std::uint32_t, kCuttingWindows> recurrent_window;
  RingBuffer<std::uint32_t, kCuttingWindows> creates_window;
  RingBuffer<double, kCuttingWindows> sibling_credit_window;

  [[nodiscard]] std::uint32_t unvisited_files() const {
    return file_count - visited_files;
  }

  /// Rolls this fragment forward to open epoch `target`: folds the open
  /// accumulators into the rings once, then replays the idle epochs in
  /// between (zero pushes, bounded by the window span — older entries are
  /// evicted anyway) and the per-epoch heat decay.  The decay replays the
  /// exact eager sequence (multiply + flush-to-zero) so a lazily advanced
  /// fragment is bit-identical to an eagerly rotated one.
  void advance_to(EpochId target, double heat_decay) {
    if (stats_epoch >= target) return;
    const EpochId gap = target - stats_epoch;
    visits_window.push(visits_epoch);
    file_visits_window.push(file_visits_epoch);
    first_visits_window.push(first_visits_epoch);
    recurrent_window.push(recurrent_epoch);
    creates_window.push(creates_epoch);
    sibling_credit_window.push(sibling_credit_epoch);
    visits_epoch = 0;
    file_visits_epoch = 0;
    first_visits_epoch = 0;
    recurrent_epoch = 0;
    creates_epoch = 0;
    sibling_credit_epoch = 0.0;
    // Idle closes: after kCuttingWindows zero pushes every ring is all
    // zero and further pushes change nothing observable.
    const EpochId idle = std::min<EpochId>(
        gap - 1, static_cast<EpochId>(kCuttingWindows));
    for (EpochId i = 0; i < idle; ++i) {
      visits_window.push(0);
      file_visits_window.push(0);
      first_visits_window.push(0);
      recurrent_window.push(0);
      creates_window.push(0);
      sibling_credit_window.push(0.0);
    }
    // Heat decays once per close; zero is a fixed point, so stop early.
    for (EpochId i = 0; i < gap && heat > 0.0; ++i) {
      heat *= heat_decay;
      if (heat < 0.01) heat = 0.0;
    }
    stats_epoch = target;
  }

  /// Predicts the clock value at which this fragment stops being live
  /// (the access recorder's retention criterion: heat or any cutting window
  /// still non-zero).  Only valid right after a fold (open accumulators
  /// zero); later accumulation re-dirties the owner and triggers a
  /// recompute.
  [[nodiscard]] EpochId compute_dead_epoch(double heat_decay) const {
    return std::max(window_dead_epoch(), heat_dead_epoch(heat_decay));
  }

  /// Predicts the clock value from which all six cutting windows are zero,
  /// so every window sum a candidate reads from this fragment is zero (the
  /// access recorder's window-liveness criterion).  Sibling credits count:
  /// they alone can give a unit a migration index.  Valid right after a
  /// fold, like compute_dead_epoch.
  [[nodiscard]] EpochId window_dead_epoch() const {
    EpochId steps = 0;
    steps = newest_nonzero_steps(visits_window, steps);
    steps = newest_nonzero_steps(file_visits_window, steps);
    steps = newest_nonzero_steps(first_visits_window, steps);
    steps = newest_nonzero_steps(recurrent_window, steps);
    steps = newest_nonzero_steps(creates_window, steps);
    steps = newest_nonzero_steps(sibling_credit_window, steps);
    return stats_epoch + steps;
  }

  /// Predicts the clock value from which the heat is zero: it decays once
  /// per close and flushes to zero below 0.01, as advance_to replays it.
  [[nodiscard]] EpochId heat_dead_epoch(double heat_decay) const {
    double h = heat;
    EpochId steps = 0;
    while (h > 0.0) {
      h *= heat_decay;
      if (h < 0.01) h = 0.0;
      ++steps;
    }
    return stats_epoch + steps;
  }

 private:
  /// The larger of `at_least` and the closes until the newest non-zero
  /// entry of `ring` is evicted (its window sum is zero from then on).
  /// Only entries new enough to beat `at_least` are read, so a chain of
  /// calls stops scanning once one ring holds a newest-epoch entry.
  template <typename T>
  [[nodiscard]] static EpochId newest_nonzero_steps(
      const RingBuffer<T, kCuttingWindows>& ring, EpochId at_least) {
    const std::size_t newer =
        kCuttingWindows - static_cast<std::size_t>(at_least);
    for (std::size_t i = 0; i < std::min(ring.size(), newer); ++i) {
      if (ring.at(i) != T{}) {
        return static_cast<EpochId>(kCuttingWindows - i);
      }
    }
    return at_least;
  }
};

}  // namespace lunule::fs
