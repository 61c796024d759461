#include "fs/namespace_tree.h"

#include <algorithm>

#include "common/assert.h"
#include "common/validate.h"

namespace lunule::fs {

namespace {

/// Packs a resolved authority with the cache generation into one word.
/// auth + 1 keeps the value field non-zero for rank 0 so an all-zero
/// (freshly grown) entry can never decode as valid.
std::uint64_t pack_auth(std::uint64_t gen, MdsId auth) {
  return (gen << 16) |
         static_cast<std::uint16_t>(static_cast<std::uint32_t>(auth) + 1);
}

MdsId unpack_auth(std::uint64_t packed) {
  return static_cast<MdsId>(static_cast<std::uint16_t>(packed)) - 1;
}

}  // namespace

NamespaceTree::NamespaceTree() {
  dirs_.emplace_back(0, kNoDir, "/");
  parent_.push_back(kNoDir);
  // The root is always a subtree root; CephFS pins "/" to mds.0 at startup.
  explicit_auth_.push_back(0);
  subtree_inodes_.push_back(1);
  frag_bits_.push_back(0);
  frag_base_.push_back(0);
  frag_arena_.emplace_back();
  pinned_dirs_.insert(0);
  auth_cache_.resize(1);
  census_add(0, 1);
}

DirId NamespaceTree::add_dir(DirId parent, std::string name) {
  LUNULE_CHECK(parent < dirs_.size());
  const auto id = static_cast<DirId>(dirs_.size());
  dirs_.emplace_back(id, parent, std::move(name));
  dirs_.back().sibling_index_ =
      static_cast<std::uint32_t>(dirs_[parent].children_.size());
  dirs_[parent].children_.push_back(id);
  parent_.push_back(parent);
  explicit_auth_.push_back(kNoMds);
  subtree_inodes_.push_back(0);
  frag_bits_.push_back(0);
  frag_base_.push_back(static_cast<std::uint32_t>(frag_arena_.size()));
  frag_arena_.emplace_back();
  auth_cache_.resize(dirs_.size());
  add_inodes_to_ancestors(id, 1);
  // The new directory has no pin, so it lands on its parent's authority.
  census_add(auth_of(parent), 1);
  return id;
}

void NamespaceTree::reserve_dirs(std::size_t more) {
  const auto make_room = [](auto& v, std::size_t n) {
    if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
  };
  const std::size_t n = dirs_.size() + more;
  make_room(dirs_, n);
  make_room(parent_, n);
  make_room(explicit_auth_, n);
  make_room(subtree_inodes_, n);
  make_room(frag_bits_, n);
  make_room(frag_base_, n);
  make_room(frag_arena_,
            frag_arena_.size() + more + (std::size_t{1} << kMaxFragBits));
  auth_cache_.reserve(n);
}

void NamespaceTree::add_files(DirId d, std::uint32_t count) {
  Directory& dir = dirs_[d];
  const auto old_size = static_cast<std::uint32_t>(dir.files_.size());
  dir.files_.resize(old_size + count);
  const std::uint32_t mask = frag_count(d) - 1;
  const std::span<FragStats> fr = frags(d);
  const MdsId dir_auth = auth_of(d);
  for (std::uint32_t i = old_size; i < old_size + count; ++i) {
    FragStats& f = fr[i & mask];
    ++f.file_count;
    census_add(f.auth_pin != kNoMds ? f.auth_pin : dir_auth, 1);
  }
  add_inodes_to_ancestors(d, count);
}

FileIndex NamespaceTree::create_file(DirId d) {
  const FileIndex idx = create_file_deferred(d);
  add_inodes_to_ancestors(d, 1);
  const FragStats& f = frag(d, frag_of(d, idx));
  census_add(f.auth_pin != kNoMds ? f.auth_pin : auth_of(d), 1);
  return idx;
}

FileIndex NamespaceTree::create_file_deferred(DirId d) {
  Directory& dir = dirs_[d];
  const auto idx = static_cast<FileIndex>(dir.files_.size());
  dir.files_.emplace_back();
  ++frag(d, frag_of(d, idx)).file_count;
  return idx;
}

void NamespaceTree::account_created_files(DirId d, std::uint64_t count) {
  if (count == 0) return;
  // Deferred creates are only routed into directories without fragment
  // pins, so every created file's effective authority is the directory's.
  LUNULE_CHECK(dirs_[d].frag_pin_count_ == 0);
  add_inodes_to_ancestors(d, count);
  census_add(auth_of(d), count);
}

void NamespaceTree::fragment_dir(DirId d, std::uint8_t bits) {
  LUNULE_CHECK_MSG(bits >= frag_bits_[d], "dirfrags can only be split");
  LUNULE_CHECK(bits <= kMaxFragBits);
  if (bits == frag_bits_[d]) return;

  // Lazily advanced fragments must be rolled to the clock before their
  // state is redistributed (the open accumulators stay open: the split
  // scales them into the refining fragments, exactly as before).
  advance_dir_stats(d);

  const Directory& dir = dirs_[d];
  const std::uint32_t old_count = frag_count(d);
  const std::uint32_t new_count = 1u << bits;
  std::vector<FragStats> next(new_count);

  // With the interleaved mapping, new fragment f refines old fragment
  // (f & old_mask): inherit its pin and split its statistics.  Every
  // file's effective authority is therefore unchanged, so the placement
  // census needs no adjustment.
  const std::uint32_t old_mask = old_count - 1;
  const std::uint32_t new_mask = new_count - 1;
  const auto n_files = static_cast<std::uint32_t>(dir.files_.size());
  for (std::uint32_t i = 0; i < n_files; ++i) {
    FragStats& nf = next[i & new_mask];
    ++nf.file_count;
    if (dir.files_[i].visited()) ++nf.visited_files;
  }
  for (std::uint32_t f = 0; f < new_count; ++f) {
    const FragStats& old_frag = frag(d, static_cast<FragId>(f & old_mask));
    FragStats& nf = next[f];
    nf.auth_pin = old_frag.auth_pin;
    const double ratio =
        old_frag.file_count == 0
            ? 0.0
            : static_cast<double>(nf.file_count) /
                  static_cast<double>(old_frag.file_count);
    nf.heat = old_frag.heat * ratio;
    nf.visits_epoch =
        static_cast<std::uint32_t>(old_frag.visits_epoch * ratio);
    nf.file_visits_epoch =
        static_cast<std::uint32_t>(old_frag.file_visits_epoch * ratio);
    nf.first_visits_epoch =
        static_cast<std::uint32_t>(old_frag.first_visits_epoch * ratio);
    nf.recurrent_epoch =
        static_cast<std::uint32_t>(old_frag.recurrent_epoch * ratio);
    nf.creates_epoch =
        static_cast<std::uint32_t>(old_frag.creates_epoch * ratio);
    nf.sibling_credit_epoch = old_frag.sibling_credit_epoch * ratio;
    nf.total_visits =
        static_cast<std::uint64_t>(static_cast<double>(old_frag.total_visits) * ratio);
    // Replay the cutting windows oldest-first, scaled by the file ratio, so
    // a just-split fragment still has a meaningful migration index.
    for (std::size_t w = old_frag.visits_window.size(); w-- > 0;) {
      nf.visits_window.push(static_cast<std::uint32_t>(
          old_frag.visits_window.at(w) * ratio));
      nf.file_visits_window.push(static_cast<std::uint32_t>(
          old_frag.file_visits_window.at(w) * ratio));
      nf.first_visits_window.push(static_cast<std::uint32_t>(
          old_frag.first_visits_window.at(w) * ratio));
      nf.recurrent_window.push(static_cast<std::uint32_t>(
          old_frag.recurrent_window.at(w) * ratio));
      nf.creates_window.push(static_cast<std::uint32_t>(
          old_frag.creates_window.at(w) * ratio));
      nf.sibling_credit_window.push(old_frag.sibling_credit_window.at(w) *
                                    ratio);
    }
    nf.stats_epoch = stats_clock_;
    nf.dead_epoch = nf.compute_dead_epoch(heat_decay_);
  }
  const std::uint8_t old_bits = frag_bits_[d];
  // Append the refined block to the arena; the old block becomes a hole.
  frag_base_[d] = static_cast<std::uint32_t>(frag_arena_.size());
  frag_arena_.insert(frag_arena_.end(),
                     std::make_move_iterator(next.begin()),
                     std::make_move_iterator(next.end()));
  frag_bits_[d] = bits;
  // Re-derive the pinned-fragment count from the refined layout.
  std::uint32_t pins = 0;
  for (const FragStats& frag : frags(d)) {
    if (frag.auth_pin != kNoMds) ++pins;
  }
  const std::uint32_t old_pins = dirs_[d].frag_pin_count_;
  dirs_[d].frag_pin_count_ = pins;
  if (old_pins == 0 && pins > 0) frag_pinned_dirs_.insert(d);
  if (old_pins > 0 && pins == 0) frag_pinned_dirs_.erase(d);
  if (fragment_hook_) fragment_hook_(d, old_bits, bits);
}

void NamespaceTree::index_explicit_auth(DirId d, MdsId old_pin,
                                        MdsId new_pin) {
  if (old_pin == kNoMds && new_pin != kNoMds) pinned_dirs_.insert(d);
  if (old_pin != kNoMds && new_pin == kNoMds) pinned_dirs_.erase(d);
}

void NamespaceTree::count_frag_pin(DirId d, MdsId old_pin, MdsId new_pin) {
  Directory& dir = dirs_[d];
  if (old_pin == kNoMds && new_pin != kNoMds) {
    if (++dir.frag_pin_count_ == 1) frag_pinned_dirs_.insert(d);
  } else if (old_pin != kNoMds && new_pin == kNoMds) {
    LUNULE_CHECK(dir.frag_pin_count_ > 0);
    if (--dir.frag_pin_count_ == 0) frag_pinned_dirs_.erase(d);
  }
}

void NamespaceTree::census_add(MdsId m, std::uint64_t n) {
  LUNULE_CHECK(m >= 0);
  if (static_cast<std::size_t>(m) >= census_.size()) {
    census_.resize(static_cast<std::size_t>(m) + 1, 0);
  }
  census_[static_cast<std::size_t>(m)] += n;
}

void NamespaceTree::census_sub(MdsId m, std::uint64_t n) {
  LUNULE_CHECK(m >= 0 && static_cast<std::size_t>(m) < census_.size());
  LUNULE_CHECK(census_[static_cast<std::size_t>(m)] >= n);
  census_[static_cast<std::size_t>(m)] -= n;
}

void NamespaceTree::census_move(MdsId from, MdsId to, std::uint64_t n) {
  if (from == to || n == 0) return;
  census_sub(from, n);
  census_add(to, n);
}

void NamespaceTree::set_auth(DirId d, MdsId m) {
  LUNULE_CHECK(m != kNoMds);
  // The inodes that follow d's resolved authority are exactly its
  // exclusive set (pinned fragments and pinned descendants excluded —
  // and the set does not depend on d's own pin).
  const MdsId old_eff = auth_of(d);
  const std::uint64_t moved =
      old_eff == m ? 0 : exclusive_inodes(SubtreeRef{d, kWholeDir});
  index_explicit_auth(d, explicit_auth_[d], m);
  explicit_auth_[d] = m;
  invalidate_auth_cache();
  census_move(old_eff, m, moved);
}

void NamespaceTree::clear_auth(DirId d) {
  LUNULE_CHECK_MSG(d != root(), "the root must stay pinned");
  const MdsId old_eff = auth_of(d);
  const std::uint64_t owned = exclusive_inodes(SubtreeRef{d, kWholeDir});
  index_explicit_auth(d, explicit_auth_[d], kNoMds);
  explicit_auth_[d] = kNoMds;
  invalidate_auth_cache();
  census_move(old_eff, auth_of(d), owned);
}

void NamespaceTree::set_frag_auth(DirId d, FragId f, MdsId m) {
  LUNULE_CHECK(f >= 0 && static_cast<std::uint32_t>(f) < frag_count(d));
  FragStats& fr = frag(d, f);
  const MdsId dir_auth = auth_of(d);
  const MdsId old_eff = fr.auth_pin != kNoMds ? fr.auth_pin : dir_auth;
  const MdsId new_eff = m != kNoMds ? m : dir_auth;
  count_frag_pin(d, fr.auth_pin, m);
  fr.auth_pin = m;
  // Fragment pins override but never alter what the directory inherits, so
  // the dir-level resolution cache stays valid.
  census_move(old_eff, new_eff, fr.file_count);
}

MdsId NamespaceTree::resolve_auth_uncached(DirId d) const {
  while (explicit_auth_[d] == kNoMds) {
    LUNULE_CHECK(parent_[d] != kNoDir);
    d = parent_[d];
  }
  return explicit_auth_[d];
}

MdsId NamespaceTree::auth_of(DirId d) const {
  const std::uint64_t gen = dir_auth_gen_;
  std::uint64_t packed = auth_cache_.load(d);
  if ((packed >> 16) == gen) return unpack_auth(packed);
  // Walk up collecting stale directories until a pin or a warm cache entry
  // resolves the chain, then fill the whole walk downward — amortised O(1)
  // per lookup, and iterative so pathologically deep chains cannot
  // overflow the stack.  thread_local scratch keeps concurrent walks from
  // the sharded tick phase independent; racing fills of the same entry all
  // store the same packed word, so the relaxed stores are benign.
  static thread_local std::vector<DirId> walk;
  walk.clear();
  DirId cur = d;
  MdsId a = kNoMds;
  while (true) {
    packed = auth_cache_.load(cur);
    if ((packed >> 16) == gen) {
      a = unpack_auth(packed);
      break;
    }
    if (explicit_auth_[cur] != kNoMds) {
      a = explicit_auth_[cur];
      break;
    }
    walk.push_back(cur);
    LUNULE_CHECK(parent_[cur] != kNoDir);
    cur = parent_[cur];
  }
  const std::uint64_t fill = pack_auth(gen, a);
  auth_cache_.store(cur, fill);
  for (const DirId w : walk) auth_cache_.store(w, fill);
  return a;
}

MdsId NamespaceTree::auth_of_file(DirId d, FileIndex i) const {
  const MdsId pin = frag(d, frag_of(d, i)).auth_pin;
  return pin != kNoMds ? pin : auth_of(d);
}

MdsId NamespaceTree::auth_of_subtree(const SubtreeRef& ref) const {
  if (ref.is_frag()) {
    const MdsId pin = frag(ref.dir, ref.frag).auth_pin;
    return pin != kNoMds ? pin : auth_of(ref.dir);
  }
  return auth_of(ref.dir);
}

namespace {

/// An authority change invalidates read replicas (CephFS re-establishes
/// them from the new authority if the fragment stays hot).  Iterative
/// (explicit stack) so deep unpinned chains cannot overflow the C++ stack.
void drop_replicas_below(NamespaceTree& tree, DirId d,
                         std::vector<DirId>& stack) {
  stack.clear();
  stack.push_back(d);
  while (!stack.empty()) {
    const DirId cur = stack.back();
    stack.pop_back();
    for (FragStats& frag : tree.frags(cur)) frag.replica_mask = 0;
    for (const DirId c : tree.dir(cur).children()) {
      if (tree.explicit_auth(c) == kNoMds) stack.push_back(c);
    }
  }
}

}  // namespace

std::uint64_t NamespaceTree::migrate_subtree(const SubtreeRef& ref,
                                             MdsId to) {
  const std::uint64_t moved = exclusive_inodes(ref);
  if (ref.is_frag()) {
    frag(ref.dir, ref.frag).replica_mask = 0;
    set_frag_auth(ref.dir, ref.frag, to);
  } else {
    drop_replicas_below(*this, ref.dir, dir_stack_);
    set_auth(ref.dir, to);
  }
  return moved;
}

void NamespaceTree::simplify_auth() {
  // Directory ids are assigned parent-before-child, so one ascending pass
  // sees each parent fully simplified before its children.  Only pinned
  // directories can hold a redundant pin; iterate the pin index (snapshot:
  // clearing a pin mutates the index) instead of the whole namespace.
  // Removing a redundant pin never changes any resolved authority, so the
  // placement census is untouched.
  std::vector<DirId> snapshot;
  snapshot.reserve(pinned_dirs_.size() + frag_pinned_dirs_.size());
  std::set_union(pinned_dirs_.begin(), pinned_dirs_.end(),
                 frag_pinned_dirs_.begin(), frag_pinned_dirs_.end(),
                 std::back_inserter(snapshot));
  for (const DirId d : snapshot) {
    if (d == root()) continue;  // the root pin is never redundant
    if (explicit_auth_[d] != kNoMds) {
      // What would this directory inherit without its own pin?
      const MdsId inherited = auth_of(parent_[d]);
      if (explicit_auth_[d] == inherited) {
        index_explicit_auth(d, explicit_auth_[d], kNoMds);
        explicit_auth_[d] = kNoMds;
        invalidate_auth_cache();
      }
    }
    if (dirs_[d].frag_pin_count_ == 0) continue;
    const MdsId resolved = auth_of(d);
    for (FragStats& frag : frags(d)) {
      if (frag.auth_pin != kNoMds && frag.auth_pin == resolved) {
        count_frag_pin(d, frag.auth_pin, kNoMds);
        frag.auth_pin = kNoMds;
      }
    }
  }
}

std::uint64_t NamespaceTree::exclusive_inodes(const SubtreeRef& ref) const {
  if (ref.is_frag()) {
    return frag(ref.dir, ref.frag).file_count;
  }
  // Count each directory + its unpinned files, descending (iteratively)
  // into children that are not subtree bounds themselves.  thread_local
  // scratch: parallel candidate collection sizes whole-dir units
  // concurrently.
  static thread_local std::vector<DirId> stack;
  std::uint64_t count = 0;
  stack.clear();
  stack.push_back(ref.dir);
  while (!stack.empty()) {
    const DirId cur = stack.back();
    stack.pop_back();
    ++count;
    for (const FragStats& frag : frags(cur)) {
      if (frag.auth_pin == kNoMds) count += frag.file_count;
    }
    for (const DirId c : dirs_[cur].children_) {
      if (explicit_auth_[c] == kNoMds) stack.push_back(c);
    }
  }
  return count;
}

std::string NamespaceTree::path_of(DirId d) const {
  if (d == root()) return "/";
  std::string path;
  while (d != root()) {
    path = "/" + dirs_[d].name_ + path;
    d = parent_[d];
  }
  return path;
}

std::uint32_t NamespaceTree::depth_of(DirId d) const {
  std::uint32_t depth = 0;
  while (d != root()) {
    d = parent_[d];
    ++depth;
  }
  return depth;
}

bool NamespaceTree::is_ancestor(DirId ancestor, DirId d) const {
  while (true) {
    if (d == ancestor) return true;
    if (d == root()) return false;
    d = parent_[d];
  }
}

std::vector<std::uint64_t> NamespaceTree::inodes_per_mds(
    std::size_t n_mds) const {
  std::vector<std::uint64_t> counts(n_mds, 0);
  for (std::size_t m = 0; m < census_.size(); ++m) {
    if (m < n_mds) {
      counts[m] = census_[m];
    } else {
      LUNULE_CHECK_MSG(census_[m] == 0,
                       "inodes placed on a rank beyond the requested census");
    }
  }
  if (validation_enabled()) {
    const std::vector<std::uint64_t> scan = inodes_per_mds_scan(n_mds);
    LUNULE_CHECK_MSG(scan == counts,
                     "incremental inode census diverged from the full scan");
  }
  return counts;
}

std::vector<std::uint64_t> NamespaceTree::inodes_per_mds_scan(
    std::size_t n_mds) const {
  std::vector<std::uint64_t> counts(n_mds, 0);
  for (const auto& dir : dirs_) {
    const MdsId dir_auth = auth_of(dir.id());
    LUNULE_CHECK(static_cast<std::size_t>(dir_auth) < n_mds);
    ++counts[static_cast<std::size_t>(dir_auth)];
    for (const FragStats& frag : frags(dir.id())) {
      const MdsId a = frag.auth_pin != kNoMds ? frag.auth_pin : dir_auth;
      LUNULE_CHECK(static_cast<std::size_t>(a) < n_mds);
      counts[static_cast<std::size_t>(a)] += frag.file_count;
    }
  }
  return counts;
}

std::vector<DirId> NamespaceTree::subtree_roots() const {
  return {pinned_dirs_.begin(), pinned_dirs_.end()};
}

void NamespaceTree::add_inodes_to_ancestors(DirId d, std::uint64_t count) {
  while (true) {
    subtree_inodes_[d] += count;
    if (d == root()) break;
    d = parent_[d];
  }
}

}  // namespace lunule::fs
