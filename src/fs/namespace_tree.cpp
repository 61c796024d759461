#include "fs/namespace_tree.h"

#include <algorithm>

#include "common/assert.h"

namespace lunule::fs {

NamespaceTree::NamespaceTree() {
  dirs_.emplace_back("/");
  parent_.push_back(kNoDir);
  // The root is always a subtree root; CephFS pins "/" to mds.0 at startup.
  explicit_auth_.push_back(0);
  frag_bits_.push_back(0);
  frag_base_.push_back(0);
  frag_arena_.emplace_back();
  pinned_dirs_.insert(0);
  auth_cache_.resize(1);
}

DirId NamespaceTree::add_dir(DirId parent, std::string name) {
  LUNULE_CHECK(parent < dirs_.size());
  const auto id = static_cast<DirId>(dirs_.size());
  dirs_.emplace_back(std::move(name));
  dirs_.back().sibling_index_ =
      static_cast<std::uint32_t>(dirs_[parent].children_.size());
  dirs_[parent].children_.push_back(id);
  parent_.push_back(parent);
  explicit_auth_.push_back(kNoMds);
  frag_bits_.push_back(0);
  frag_base_.push_back(static_cast<std::uint32_t>(frag_arena_.size()));
  frag_arena_.emplace_back();
  auth_cache_.resize(dirs_.size());
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
  for (std::uint32_t i = old_size; i < old_size + count; ++i) {
    ++fr[i & mask].file_count;
  }
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
  // (f & old_mask): inherit its pin and split its statistics, so every
  // file's effective authority is unchanged.
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
    nf.open = old_frag.open.scaled(ratio);
    nf.sibling_credit_epoch = old_frag.sibling_credit_epoch * ratio;
    // Replay the cutting windows oldest-first, scaled by the file ratio, so
    // a just-split fragment still has a meaningful migration index.
    const CuttingWindows& old_windows = old_frag.windows;
    for (std::size_t w = old_windows.size(); w-- > 0;) {
      nf.windows.push(old_windows.counts(w).scaled(ratio),
                      old_windows.sibling_credit(w) * ratio);
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
  // A refinement keeps every pin, so d's place in the pin index stands.
  dirs_[d].frag_pin_count_ = pins;
  if (fragment_hook_) fragment_hook_(d, old_bits, bits);
}

void NamespaceTree::index_pins(DirId d) {
  if (explicit_auth_[d] != kNoMds || dirs_[d].frag_pin_count_ > 0) {
    pinned_dirs_.insert(d);
  } else {
    pinned_dirs_.erase(d);
  }
}

void NamespaceTree::count_frag_pin(DirId d, MdsId old_pin, MdsId new_pin) {
  std::uint32_t& pins = dirs_[d].frag_pin_count_;
  if (old_pin == kNoMds && new_pin != kNoMds) {
    ++pins;
  } else if (old_pin != kNoMds && new_pin == kNoMds) {
    LUNULE_CHECK(pins > 0);
    --pins;
  }
}

void NamespaceTree::set_auth(DirId d, MdsId m) {
  LUNULE_CHECK(m != kNoMds);
  explicit_auth_[d] = m;
  invalidate_auth_cache();
  index_pins(d);
}

void NamespaceTree::clear_auth(DirId d) {
  LUNULE_CHECK_MSG(d != root(), "the root must stay pinned");
  explicit_auth_[d] = kNoMds;
  invalidate_auth_cache();
  index_pins(d);
}

void NamespaceTree::set_frag_auth(DirId d, FragId f, MdsId m) {
  LUNULE_CHECK(f >= 0 && static_cast<std::uint32_t>(f) < frag_count(d));
  FragStats& fr = frag(d, f);
  count_frag_pin(d, fr.auth_pin, m);
  fr.auth_pin = m;
  // Fragment pins override but never alter what the directory inherits, so
  // the dir-level resolution cache stays valid.
  index_pins(d);
}

MdsId NamespaceTree::resolve_auth_uncached(DirId d) const {
  while (explicit_auth_[d] == kNoMds) {
    LUNULE_CHECK(parent_[d] != kNoDir);
    d = parent_[d];
  }
  return explicit_auth_[d];
}

MdsId NamespaceTree::resolve_and_fill(DirId d) const {
  const std::uint64_t gen = dir_auth_gen_;
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
    const std::uint64_t packed = auth_cache_.load(cur);
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
  // directories can hold a redundant pin, so the pass walks the pin index
  // instead of the whole namespace.  Trimming adds no directory to the
  // index and may drop only the current one, so the cursor steps past it
  // first.  Removing a redundant pin never changes any resolved authority.
  for (auto it = pinned_dirs_.begin(); it != pinned_dirs_.end();) {
    const DirId d = *it++;
    if (d == root()) continue;  // the root pin is never redundant
    // What would this directory inherit without its own pin?
    if (explicit_auth_[d] != kNoMds &&
        explicit_auth_[d] == auth_of(parent_[d])) {
      explicit_auth_[d] = kNoMds;
      invalidate_auth_cache();
    }
    if (dirs_[d].frag_pin_count_ > 0) {
      const MdsId resolved = auth_of(d);
      for (FragStats& frag : frags(d)) {
        if (frag.auth_pin != kNoMds && frag.auth_pin == resolved) {
          count_frag_pin(d, frag.auth_pin, kNoMds);
          frag.auth_pin = kNoMds;
        }
      }
    }
    index_pins(d);
  }
}

std::uint64_t NamespaceTree::exclusive_inodes(const SubtreeRef& ref) const {
  if (ref.is_frag()) {
    return frag(ref.dir, ref.frag).file_count;
  }
  // Count each directory + its unpinned files, descending (iteratively)
  // into children that are not subtree bounds themselves.  The unit's own
  // directory is counted before anything is pushed, so a leaf (every
  // collected unit but the rare directory holding both files and
  // subdirectories) only finds the stack empty.  thread_local scratch:
  // run_scenarios runs several simulations at once in one process.
  static thread_local std::vector<DirId> stack;  // empty between calls
  std::uint64_t count = 0;
  for (DirId cur = ref.dir;;) {
    ++count;
    for (const FragStats& frag : frags(cur)) {
      if (frag.auth_pin == kNoMds) count += frag.file_count;
    }
    for (const DirId c : dirs_[cur].children_) {
      if (explicit_auth_[c] == kNoMds) stack.push_back(c);
    }
    if (stack.empty()) return count;
    cur = stack.back();
    stack.pop_back();
  }
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

std::uint64_t NamespaceTree::total_inodes() const {
  std::uint64_t count = dirs_.size();
  for (const Directory& dir : dirs_) count += dir.file_count();
  return count;
}

std::vector<std::uint64_t> NamespaceTree::inodes_per_mds(
    std::size_t n_mds) const {
  std::vector<std::uint64_t> counts(n_mds, 0);
  for (DirId d = 0; d < dirs_.size(); ++d) {
    const MdsId dir_auth = auth_of(d);
    LUNULE_CHECK(static_cast<std::size_t>(dir_auth) < n_mds);
    ++counts[static_cast<std::size_t>(dir_auth)];
    for (const FragStats& frag : frags(d)) {
      const MdsId a = frag.auth_pin != kNoMds ? frag.auth_pin : dir_auth;
      LUNULE_CHECK(static_cast<std::size_t>(a) < n_mds);
      counts[static_cast<std::size_t>(a)] += frag.file_count;
    }
  }
  return counts;
}

std::vector<DirId> NamespaceTree::subtree_roots() const {
  std::vector<DirId> roots;
  for (const DirId d : pinned_dirs_) {
    if (explicit_auth_[d] != kNoMds) roots.push_back(d);
  }
  return roots;
}

}  // namespace lunule::fs
