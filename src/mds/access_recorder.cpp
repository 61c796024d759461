#include "mds/access_recorder.h"

#include <algorithm>

#include "common/assert.h"
#include "common/prefetch.h"
#include "fs/directory.h"

namespace lunule::mds {

namespace {

/// Directories folded per parallel work unit; coarse enough to amortise
/// the claim lock, fine enough to balance skewed fold costs.
constexpr std::size_t kFoldChunk = 256;

/// Runs range(lo, hi) over [0, n), chunked across the pool when it pays;
/// the per-item work must be index-disjoint so any worker count (including
/// none) produces identical state.
void parallel_chunks(
    WorkerPool* pool, std::size_t n,
    const std::function<void(std::size_t lo, std::size_t hi)>& range) {
  if (pool == nullptr || pool->workers() == 0 || n < 2 * kFoldChunk) {
    range(0, n);
    return;
  }
  const std::size_t chunks = (n + kFoldChunk - 1) / kFoldChunk;
  pool->run_indexed(chunks, [&](std::size_t c) {
    const std::size_t lo = c * kFoldChunk;
    range(lo, std::min(n, lo + kFoldChunk));
  });
}

}  // namespace

AccessRecorder::AccessRecorder(fs::NamespaceTree& tree, RecorderParams params,
                               Rng rng)
    : tree_(tree), params_(params), credit_seed_(rng.next_u64()) {
  LUNULE_CHECK(params_.heat_decay > 0.0 && params_.heat_decay < 1.0);
  LUNULE_CHECK(params_.sibling_credit_prob >= 0.0 &&
               params_.sibling_credit_prob <= 1.0);
  // Every reader that rolls a lagging fragment forward must replay the
  // exact decay sequence this recorder would have applied.
  tree_.set_heat_decay(params_.heat_decay);
}

AccessOutcome AccessRecorder::record(DirId d, FileIndex i, EpochId epoch,
                                     RecorderLane* lane) {
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

void AccessRecorder::record_create(DirId d, FileIndex i, EpochId epoch,
                                   RecorderLane* lane) {
  fs::FileState& file = tree_.dir(d).file(i);
  file.last_access_epoch = static_cast<std::uint32_t>(epoch);

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

void AccessRecorder::credit_sibling(DirId d, FileIndex i,
                                    RecorderLane* lane) {
  if (params_.sibling_credit_prob <= 0.0) return;
  // A first visit to (d, i) happens once per file lifetime, so the key is
  // consumed exactly once and the draws are independent of every other
  // access (and of the engine's op order).
  HashStream draws(credit_seed_ ^
                   mix64((static_cast<std::uint64_t>(d) << 32) |
                         static_cast<std::uint64_t>(i)));
  if (!draws.next_bool(params_.sibling_credit_prob)) return;
  const DirId parent = tree_.parent(d);
  if (parent == kNoDir) return;
  const auto& siblings = tree_.dir(parent).children();
  if (siblings.size() < 2) return;
  DirId sibling;
  if (draws.next_bool(params_.sibling_adjacent_fraction)) {
    // Namespace-order adjacency: credit the next sibling, the most likely
    // continuation of a directory-order scan.
    const std::size_t idx = tree_.dir(d).sibling_index();
    sibling = siblings[(idx + 1) % siblings.size()];
    if (sibling == d) return;
  } else {
    // Uniformly random sibling other than `d` itself.
    const auto pick =
        static_cast<std::size_t>(draws.next_below(siblings.size() - 1));
    sibling = siblings[pick];
    if (sibling == d) sibling = siblings.back();
  }
  // The fragment is picked here (tree structure is stable during a shard
  // phase) but a foreign sibling's counters may not be touched; escrow and
  // let merge_lane apply it.  The pick stays valid because lanes merge
  // before any deferred split re-fragments the sibling.
  const auto frag_pick =
      static_cast<FragId>(draws.next_below(tree_.frag_count(sibling)));
  if (lane != nullptr) {
    lane->credits.push_back({sibling, frag_pick});
    return;
  }
  fs::FragStats& frag = tree_.frag(sibling, frag_pick);
  tree_.advance_frag_stats(frag);
  frag.sibling_credit_epoch += 1.0;
  mark_touched(sibling, nullptr);
}

void AccessRecorder::merge_lane(RecorderLane& lane) {
  for (const DirId d : lane.touched) mark_touched(d, nullptr);
  for (const RecorderLane::Credit& c : lane.credits) {
    fs::FragStats& frag = tree_.frag(c.sibling, c.frag);
    tree_.advance_frag_stats(frag);
    frag.sibling_credit_epoch += 1.0;
    mark_touched(c.sibling, nullptr);
  }
  lane.touched.clear();
  lane.credits.clear();
}

void AccessRecorder::mark_touched(DirId d, RecorderLane* lane) {
  if (lane != nullptr) {
    // Dup-tolerant escrow: consecutive marks for the same directory (the
    // common case — a client hammering one dir) are elided, the rest are
    // deduplicated by the serial path at merge.
    if (lane->touched.empty() || lane->touched.back() != d) {
      lane->touched.push_back(d);
    }
    return;
  }
  if (d >= touched_epoch_.size()) {
    const std::size_t n = tree_.dir_count();
    touched_epoch_.resize(n, -1);
    bounds_.resize(n);
    is_active_.resize(n, 0);
  }
  const EpochId clock = tree_.stats_clock();
  // The first touch of an epoch also makes the directory active, so a
  // directory already touched this epoch has nothing left to join.
  if (touched_epoch_[d] == clock) return;
  if (!is_window_live(d)) window_live_.push_back(d);
  touched_epoch_[d] = clock;
  dirty_.push_back(d);
  if (!is_active_[d]) {
    is_active_[d] = 1;
    active_.push_back(d);
  }
}

bool AccessRecorder::is_window_live(DirId d) const {
  if (!is_active(d)) return false;
  const EpochId clock = tree_.stats_clock();
  return touched_epoch_[d] == clock || bounds_[d].window_dead > clock;
}

double AccessRecorder::last_epoch_rate(DirId d, double epoch_seconds) {
  LUNULE_CHECK(epoch_seconds > 0.0);
  if (!is_active(d)) return 0.0;
  std::uint64_t visits = 0;
  for (fs::FragStats& frag : tree_.frags(d)) {
    // Readers roll lagging fragments forward first, exactly like the
    // replica manager does — the rate is the same whichever asks first.
    tree_.advance_frag_stats(frag);
    visits += frag.windows.newest().visits;
  }
  return static_cast<double>(visits) / epoch_seconds;
}

std::vector<HotDir> AccessRecorder::top_hot_dirs(std::size_t k,
                                                 double epoch_seconds) {
  std::vector<HotDir> hot;
  if (k == 0) return hot;
  hot.reserve(active_.size());
  for (const DirId d : active_) {
    const double rate = last_epoch_rate(d, epoch_seconds);
    if (rate > 0.0) hot.push_back(HotDir{.dir = d, .rate_iops = rate});
  }
  // Descending rate, ties to the smaller dir id: a total order over the
  // candidates, so the top-k is unique and stable.
  const auto hotter = [](const HotDir& a, const HotDir& b) {
    if (a.rate_iops != b.rate_iops) return a.rate_iops > b.rate_iops;
    return a.dir < b.dir;
  };
  if (hot.size() > k) {
    std::partial_sort(hot.begin(), hot.begin() + static_cast<std::ptrdiff_t>(k),
                      hot.end(), hotter);
    hot.resize(k);
  } else {
    std::sort(hot.begin(), hot.end(), hotter);
  }
  return hot;
}

void AccessRecorder::fold_range(std::size_t lo, std::size_t hi,
                                EpochId closing) {
  // dirty_ is in touch order, so every fold is a random access the
  // hardware prefetchers cannot predict; issue each directory's fragment
  // block and bounds entry kPrefetchDistance folds ahead.
  for (std::size_t k = lo; k < hi; ++k) {
    if (k + kPrefetchDistance < hi) {
      const DirId next = dirty_[k + kPrefetchDistance];
      tree_.prefetch_frags(next);
      prefetch_lines(&bounds_[next]);
    }
    fold_dir(dirty_[k], closing);
  }
}

void AccessRecorder::fold_dir(DirId d, EpochId closing) {
  DirBounds& bounds = bounds_[d];
  EpochId dead = bounds.stats_dead;
  EpochId window_dead = bounds.window_dead;
  for (fs::FragStats& frag : tree_.frags(d)) {
    if (frag.stats_epoch == closing) {
      frag.advance_to(closing + 1, params_.heat_decay);
      // compute_dead_epoch, with the windows scanned once for both bounds.
      const EpochId frag_window_dead = frag.window_dead_epoch();
      frag.dead_epoch = std::max(frag_window_dead,
                                 frag.heat_dead_epoch(params_.heat_decay));
      window_dead = std::max(window_dead, frag_window_dead);
    }
    // A lagging fragment's prediction (made at its last fold) is still
    // valid; the directory keeps the running max so expiry can only be
    // postponed, never hastened.  Its windows have only aged since that
    // fold (a split scales them down), so the window bound holds too.
    dead = std::max(dead, frag.dead_epoch);
  }
  bounds.stats_dead = dead;
  bounds.window_dead = window_dead;
}

void AccessRecorder::close_epoch(WorkerPool* pool) {
  const EpochId closing = tree_.stats_clock();
  keep_scratch_.clear();
  keep_scratch_.reserve(active_.size());

  // Fold only the directories touched this epoch.  Any fragment at the
  // clock carries this epoch's accumulators (writers always advance before
  // accumulating); lagging fragments stay lagging and catch up by delta on
  // first read.  dirty_ entries are unique (touched-epoch stamp), so the
  // parallel folds touch disjoint state.
  parallel_chunks(pool, dirty_.size(), [&](std::size_t lo, std::size_t hi) {
    fold_range(lo, hi, closing);
  });
  dirty_.clear();
  tree_.tick_stats_clock();
  const EpochId clock = tree_.stats_clock();
  // Expiry keeps relative order, so the survivors of the prefix sorted at
  // the last close stay sorted; only the directories that joined since
  // (appended in touch order) need sorting before the merge.
  std::size_t kept_sorted = 0;
  for (std::size_t k = 0; k < active_.size(); ++k) {
    const DirId d = active_[k];
    if (bounds_[d].stats_dead > clock) {
      keep_scratch_.push_back(d);
      if (k < sorted_prefix_) ++kept_sorted;
    } else {
      is_active_[d] = 0;
    }
  }

  active_.swap(keep_scratch_);
  // Ascending enumeration order makes the active set a drop-in filter for
  // the whole-namespace candidate scan (which walks DirIds ascending).
  // Entries are unique (is_active_), so the merge equals a full sort.
  const auto tail = active_.begin() + static_cast<std::ptrdiff_t>(kept_sorted);
  std::sort(tail, active_.end());
  std::inplace_merge(active_.begin(), tail, active_.end());
  sorted_prefix_ = active_.size();

  // The window-live set is the sorted active set filtered by the window
  // bound; nothing is touched in the new epoch yet.
  window_live_.resize(active_.size());
  std::size_t live = 0;
  for (const DirId d : active_) {
    window_live_[live] = d;
    live += bounds_[d].window_dead > clock ? 1 : 0;
  }
  window_live_.resize(live);
}

}  // namespace lunule::mds
