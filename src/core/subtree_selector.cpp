#include "core/subtree_selector.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace lunule::core {

namespace {

/// The inode budget may never go negative: every subtraction below is
/// guarded, and this re-checks the aggregate before a selection escapes.
void check_budget(const std::vector<Selection>& out, std::uint64_t cap) {
  std::uint64_t total = 0;
  for (const Selection& s : out) total += s.inodes;
  LUNULE_CHECK_MSG(total <= cap, "selection exceeds the inode budget");
}

}  // namespace

bool SubtreeSelector::ranks_before(const ScoredKey& a, const ScoredKey& b) {
  if (a.pred != b.pred) return a.pred > b.pred;
  if (a.dir != b.dir) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.dir < b.dir;
  }
  return a.frag < b.frag;
}

SubtreeSelector::SubtreeSelector(SelectorParams params) : params_(params) {
  LUNULE_CHECK_MSG(params_.tolerance >= 0.0,
                   "selector tolerance must be non-negative");
}

std::vector<Selection> SubtreeSelector::select(
    fs::NamespaceTree& tree, MdsId exporter, double amount_iops,
    std::uint64_t inode_budget_override,
    const std::vector<DirId>* live_dirs) const {
  const std::uint64_t inode_cap = inode_budget_override > 0
                                      ? inode_budget_override
                                      : params_.inode_cap;
  std::vector<Selection> out;
  if (amount_iops <= 0.0) return out;

  // The observed last-epoch rate of a candidate; units currently hotter
  // than hot_skip_iops cannot be frozen by the Migrator (their export
  // would abort), so the whole-unit paths skip them and the split path
  // handles them at fragment granularity.
  const double epoch_seconds =
      params_.window_seconds / static_cast<double>(fs::kCuttingWindows);
  const auto current_rate = [&](const balancer::Candidate& c) {
    return static_cast<double>(c.visits_last_epoch) / epoch_seconds;
  };

  // A candidate whose six cutting-window sums are zero predicts zero
  // (alpha 0, l_t 0, l_s = min(0, unvisited) = 0) and is filtered here
  // either way, so restricting the enumeration to `live_dirs` yields the
  // exact same scored set as a full scan.
  balancer::collect_candidates_into(cand_scratch_, tree, exporter, live_dirs);
  std::vector<ScoredKey>& keys = key_scratch_;
  keys.clear();
  for (std::size_t i = 0; i < cand_scratch_.size(); ++i) {
    const balancer::Candidate& c = cand_scratch_[i];
    const double p = compute_mindex(c).predicted_iops(params_.window_seconds);
    if (p > 0.0) {
      keys.push_back(ScoredKey{.pred = p,
                               .rank = balancer::tie_rank(c.ref.dir),
                               .dir = c.ref.dir,
                               .frag = c.ref.frag,
                               .index = static_cast<std::uint32_t>(i)});
    }
  }
  if (keys.empty()) return out;
  // Eq. 4 is a pure function of the candidate, so recomputing it for the
  // few units taken gives the bits the scoring pass saw.
  const auto selection_of = [&](const ScoredKey& k) {
    const balancer::Candidate& c = cand_scratch_[k.index];
    return Selection{.ref = c.ref,
                     .predicted_iops = k.pred,
                     .inodes = c.inodes,
                     .index = compute_mindex(c)};
  };

  const double tol = params_.tolerance * amount_iops;

  // Path 1: a single subtree approximately matching the amount — the
  // first qualifying key under the order, found without sorting.
  const ScoredKey* match = nullptr;
  for (const ScoredKey& k : keys) {
    if (!(std::abs(k.pred - amount_iops) <= tol)) continue;
    if (match != nullptr && !ranks_before(k, *match)) continue;
    const balancer::Candidate& c = cand_scratch_[k.index];
    if (c.inodes <= inode_cap && current_rate(c) <= params_.hot_skip_iops) {
      match = &k;
    }
  }
  if (match != nullptr) return {selection_of(*match)};

  // Path 2: split the smallest subtree whose *predicted future load*
  // exceeds the amount and take fragments until the demand is covered.
  // The prediction (not the current rate) is the criterion: a scan-front
  // directory may be blazing hot right now but predict almost nothing —
  // splitting it would be the vanilla balancer's mistake.  The smallest
  // such subtree is the last key under the order that predicts more than
  // the amount.
  const ScoredKey* oversized = nullptr;
  for (const ScoredKey& k : keys) {
    if (k.pred > amount_iops &&
        (oversized == nullptr || ranks_before(*oversized, k))) {
      oversized = &k;
    }
  }
  if (oversized != nullptr && oversized->frag == kWholeDir) {
    const DirId d = oversized->dir;
    const fs::Directory& dir = tree.dir(d);
    if (dir.file_count() >= params_.min_files_to_fragment) {
      // Split no deeper than keeps ~min_files_to_fragment/2 files per
      // fragment — CephFS never fragments directories into slivers.
      int depth = 0;
      std::uint32_t per_frag = dir.file_count();
      while (depth < params_.split_bits &&
             per_frag / 2 >= params_.min_files_to_fragment / 2) {
        per_frag /= 2;
        ++depth;
      }
      if (depth == 0) depth = 1;
      const auto bits = static_cast<std::uint8_t>(
          std::min<int>(std::max<int>(tree.frag_bits(d) + 1,
                                      depth),
                        10));
      tree.fragment_dir(d, bits);
      double remaining = amount_iops;
      std::uint64_t inode_budget = inode_cap;
      for (FragId f = 0; f < static_cast<FragId>(tree.frag_count(d));
           ++f) {
        if (remaining <= tol || out.size() >= params_.max_subtrees) break;
        const balancer::Candidate fc = balancer::make_candidate(
            tree, fs::SubtreeRef{.dir = d, .frag = f});
        if (fc.auth != exporter) continue;
        if (current_rate(fc) > params_.hot_skip_iops) continue;
        const MigrationIndex fidx = compute_mindex(fc);
        const double p = fidx.predicted_iops(params_.window_seconds);
        if (p <= 0.0 || fc.inodes > inode_budget) continue;
        out.push_back(Selection{.ref = fc.ref,
                                .predicted_iops = p,
                                .inodes = fc.inodes,
                                .index = fidx});
        remaining -= p;
        inode_budget -= fc.inodes;
      }
      if (!out.empty()) {
        check_budget(out, inode_cap);
        return out;
      }
    }
  }

  // Path 3: minimal set, greedy largest-first, bounded by the per-epoch
  // inode capacity and the subtree-count cap.  `remaining` starts at the
  // amount and only shrinks, so a key predicting more than
  // amount·(1+tolerance) would fail the overshoot test below on every
  // step: drop those, heapify the rest and pop them in order only until
  // the walk stops.
  const double reach = amount_iops * (1.0 + params_.tolerance);
  std::erase_if(keys, [reach](const ScoredKey& k) { return k.pred > reach; });
  const auto heap_after = [](const ScoredKey& a, const ScoredKey& b) {
    return ranks_before(b, a);
  };
  std::make_heap(keys.begin(), keys.end(), heap_after);
  double remaining = amount_iops;
  std::uint64_t inode_budget = inode_cap;
  for (auto end = keys.end(); end != keys.begin(); --end) {
    if (remaining <= tol || out.size() >= params_.max_subtrees) break;
    std::pop_heap(keys.begin(), end, heap_after);
    const ScoredKey& k = *(end - 1);
    const balancer::Candidate& c = cand_scratch_[k.index];
    if (c.inodes > inode_budget) continue;
    if (current_rate(c) > params_.hot_skip_iops) continue;
    // Skip candidates that would clearly overshoot the leftover demand.
    if (k.pred > remaining * (1.0 + params_.tolerance)) continue;
    out.push_back(selection_of(k));
    remaining -= k.pred;
    inode_budget -= c.inodes;
  }
  check_budget(out, inode_cap);
  return out;
}

}  // namespace lunule::core
