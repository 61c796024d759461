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
//     ("heat") used by the CephFS-Vanilla policy, and the cutting windows
//     used by Lunule's Pattern Analyzer: one EpochCounts record (visits /
//     file visits / first visits / recurrent visits / creates) plus the
//     sibling credits per closed epoch, kept for the last kCuttingWindows
//     epochs in one CuttingWindows ring under a single cursor.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/assert.h"
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

/// One epoch's access counts on a fragment: the open accumulators while
/// the epoch runs, then one cutting-window slot once it closes.
struct EpochCounts {
  /// Metadata operations (load proxy; several ops may target the same
  /// file — lookup/getattr/open chains).
  std::uint32_t visits = 0;
  /// Logical file visits: the first op on a file per epoch (the
  /// granularity of the paper's per-inode boolean queue).
  std::uint32_t file_visits = 0;
  std::uint32_t first_visits = 0;
  std::uint32_t recurrent = 0;
  std::uint32_t creates = 0;

  /// Every count times `ratio`, truncated: a refining fragment's share
  /// when a split hands it `ratio` of the files.
  [[nodiscard]] EpochCounts scaled(double ratio) const {
    const auto share = [ratio](std::uint32_t n) {
      return static_cast<std::uint32_t>(n * ratio);
    };
    return {share(visits), share(file_visits), share(first_visits),
            share(recurrent), share(creates)};
  }

  friend bool operator==(const EpochCounts&, const EpochCounts&) = default;
};

/// Sums over the cutting windows: the Pattern Analyzer's inputs for one
/// fragment or, added up, for a whole directory.
struct WindowSums {
  std::uint64_t visits = 0;
  std::uint64_t file_visits = 0;
  std::uint64_t first_visits = 0;
  std::uint64_t recurrent = 0;
  std::uint64_t creates = 0;
  double sibling_credit = 0.0;

  WindowSums& operator+=(const WindowSums& o) {
    visits += o.visits;
    file_visits += o.file_visits;
    first_visits += o.first_visits;
    recurrent += o.recurrent;
    creates += o.creates;
    sibling_credit += o.sibling_credit;
    return *this;
  }

  friend bool operator==(const WindowSums&, const WindowSums&) = default;
};

/// The last kCuttingWindows closed epochs of a fragment, one slot per
/// epoch: its EpochCounts and the sibling credits it received.  One cursor
/// serves every field.  Slots outside the window always hold zero (they
/// start zeroed and are only ever overwritten by push), which sums() and
/// newest() rely on.  The cursors are one byte each: FragStats pays every
/// byte here once per fragment in the arena.
class CuttingWindows {
  static constexpr std::size_t N = kCuttingWindows;
  static_assert(N > 0 && N < 256, "cursors are one byte");

 public:
  /// Appends one closed epoch, evicting the oldest once full.
  void push(const EpochCounts& counts, double sibling_credit) {
    counts_[head_] = counts;
    credits_[head_] = sibling_credit;
    head_ = static_cast<std::uint8_t>(head_ + 1 == N ? 0 : head_ + 1);
    if (size_ < N) ++size_;
  }

  /// Closed epochs currently held (<= kCuttingWindows).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The i-th most recent epoch's counts and credits; i = 0 is the newest.
  [[nodiscard]] const EpochCounts& counts(std::size_t i) const {
    return counts_[slot(i)];
  }
  [[nodiscard]] double sibling_credit(std::size_t i) const {
    return credits_[slot(i)];
  }

  /// The last closed epoch's counts, zeros before the first close (the
  /// slot behind the cursor is still zero then).
  [[nodiscard]] const EpochCounts& newest() const { return counts(0); }

  /// Sums over the retained window.  The counts add every slot in one
  /// pass (integer addition is order-free and the slots outside the window
  /// hold zero).  The credits add newest to oldest, the order of
  /// sibling_credit(0), sibling_credit(1), ..., so the double is the same
  /// bits as that sum, in two straight runs instead of a modulo per slot:
  /// [head-1 .. 0], then the wrapped [N-1 .. ].
  [[nodiscard]] WindowSums sums() const {
    WindowSums s;
    for (const EpochCounts& c : counts_) {
      s.visits += c.visits;
      s.file_visits += c.file_visits;
      s.first_visits += c.first_visits;
      s.recurrent += c.recurrent;
      s.creates += c.creates;
    }
    std::size_t left = size_;
    for (std::size_t k = head_; k > 0 && left > 0; --k, --left) {
      s.sibling_credit += credits_[k - 1];
    }
    for (std::size_t k = N; left > 0; --k, --left) {
      s.sibling_credit += credits_[k - 1];
    }
    return s;
  }

  /// Closes until the newest slot with any non-zero count or credit is
  /// evicted; every sum is zero from then on.  Zero when no slot is.
  [[nodiscard]] EpochId live_steps() const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (counts(i) != EpochCounts{} || sibling_credit(i) != 0.0) {
        return static_cast<EpochId>(N - i);
      }
    }
    return 0;
  }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    return (head_ + N - 1 - i) % N;
  }

  std::array<EpochCounts, N> counts_{};
  std::array<double, N> credits_{};
  std::uint8_t head_ = 0;
  std::uint8_t size_ = 0;
};

struct FragStats {
  // Field order is layout: everything from auth_pin through dead_epoch
  // fits the first 64 bytes.  Routing reads auth_pin / replica_mask and
  // AccessRecorder::record() touches the rest up to stats_epoch, so one op
  // on a fragment stays within one cache line's worth of bytes.

  /// Authority pin; kNoMds means "inherit the owning directory's authority".
  MdsId auth_pin = kNoMds;
  /// Files mapped to this fragment.
  std::uint32_t file_count = 0;
  /// Of those, how many have ever been visited.
  std::uint32_t visited_files = 0;

  /// The open epoch's accumulators, pushed into `windows` at its close.
  EpochCounts open;

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

  // -- Lazy epoch advancement ------------------------------------------
  // Untouched fragments are not rotated at every epoch close; instead the
  // windows carry the epoch they are advanced through and catch up by
  // delta on first read.  `stats_epoch` is the open epoch whose
  // accumulators are currently live: the windows reflect every close
  // before it.  `dead_epoch` is the clock value at which the fragment's
  // signal is fully drained (all cutting windows evicted and heat flushed
  // to zero), predicted at fold time so the warm set can expire entries
  // without touching them.  stats_epoch is the last per-op field: every
  // writer compares it with the clock before accumulating.
  EpochId stats_epoch = 0;
  EpochId dead_epoch = 0;

  /// Open-epoch sibling credits (written on a sibling's first visit, not
  /// on this fragment's own ops).
  double sibling_credit_epoch = 0.0;

  /// Closed-epoch cutting windows.
  CuttingWindows windows;

  [[nodiscard]] std::uint32_t unvisited_files() const {
    return file_count - visited_files;
  }

  /// Rolls this fragment forward to open epoch `target`: pushes the open
  /// accumulators into the windows once, then replays the idle epochs in
  /// between (zero pushes, bounded by the window span — older slots are
  /// evicted anyway) and the per-epoch heat decay.  The decay replays the
  /// exact eager sequence (multiply + flush-to-zero) so a lazily advanced
  /// fragment is bit-identical to an eagerly rotated one.
  void advance_to(EpochId target, double heat_decay) {
    if (stats_epoch >= target) return;
    const EpochId gap = target - stats_epoch;
    windows.push(open, sibling_credit_epoch);
    open = {};
    sibling_credit_epoch = 0.0;
    // Idle closes: after kCuttingWindows zero pushes every slot is zero
    // and further pushes change nothing observable.
    const EpochId idle = std::min<EpochId>(
        gap - 1, static_cast<EpochId>(kCuttingWindows));
    for (EpochId i = 0; i < idle; ++i) windows.push({}, 0.0);
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

  /// Predicts the clock value from which every window sum a candidate
  /// reads from this fragment is zero (the access recorder's
  /// window-liveness criterion).  Sibling credits count: they alone can
  /// give a unit a migration index.  Valid right after a fold, like
  /// compute_dead_epoch.
  [[nodiscard]] EpochId window_dead_epoch() const {
    return stats_epoch + windows.live_steps();
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
};

}  // namespace lunule::fs
