// The simulated hierarchical namespace with CephFS subtree-authority
// semantics.
//
// Authority resolution: a directory with an explicit authority pin is a
// *subtree root*; every other directory inherits the authority of its
// nearest pinned ancestor.  Fragmented directories may additionally pin
// individual dirfrags.
//
// Hot arenas (struct-of-arrays): the fields the hot paths touch —
// parent links, explicit pins, fragmentation level, and the per-fragment
// statistics — are stored in flat arrays indexed by DirId rather than
// inside Directory, so authority resolution, epoch close, and candidate
// collection walk contiguous memory.  All fragments live in one global
// arena: frag_base_[d] is the offset of d's 2^frag_bits_[d] contiguous
// FragStats; a split appends a fresh block and abandons the old one
// (splits are rare and bounded, so the holes are cheap and ids stay
// stable).
//
// Each namespace fact is stored once.  The fragments' file counts are the
// only inode tally: total_inodes() and the placement census
// (inodes_per_mds) sum them on demand, so adding or creating a file
// touches only its directory and the fragment it lands in.  The pin index
// (pinned_dirs) holds every subtree bound, directory pins and fragment
// pins alike.
//
// Resolved authorities are cached in a flat array of relaxed-atomic
// packed entries ((generation << 16) | uint16(auth + 1)), invalidated
// wholesale by bumping the generation whenever a *directory-level* pin
// changes (migrations are rare relative to reads; dirfrag pins never
// touch the dir-level cache because they cannot change what a directory
// inherits).  The atomic packing makes concurrent auth_of() calls from
// the sharded tick engine safe: racing fills compute identical values,
// and a torn generation/value pair cannot exist because both live in
// the same 64-bit word.
//
// The tree also carries the statistics clock for lazy cutting-window
// advancement: AccessRecorder::close_epoch() ticks it, and any reader of a
// fragment's windows first rolls the fragment forward to the clock (see
// FragStats::advance_to), so untouched fragments pay nothing per epoch.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/atomic_array.h"
#include "common/prefetch.h"
#include "common/types.h"
#include "fs/dirfrag.h"
#include "fs/directory.h"

namespace lunule::fs {

/// Reference to a migratable unit: a whole directory subtree, or one
/// fragment of a directory when `frag != kWholeDir`.
struct SubtreeRef {
  DirId dir = kNoDir;
  FragId frag = kWholeDir;

  [[nodiscard]] bool is_frag() const { return frag != kWholeDir; }
  friend bool operator==(const SubtreeRef&, const SubtreeRef&) = default;
};

class NamespaceTree {
 public:
  NamespaceTree();

  // -- Construction ---------------------------------------------------
  [[nodiscard]] DirId root() const { return 0; }
  DirId add_dir(DirId parent, std::string name);
  /// Adds `count` (unvisited) files to `d` in bulk; build-time only.
  void add_files(DirId d, std::uint32_t count);
  /// Creates one file at runtime (MDtest-create path); returns its index.
  /// Touches only `d` and the fragment the file lands in, so a rank stream
  /// of the sharded engine may create in a directory its rank serves.
  FileIndex create_file(DirId d) {
    Directory& dir = dirs_[d];
    const auto idx = static_cast<FileIndex>(dir.files_.size());
    dir.files_.emplace_back();
    ++frag(d, frag_of(d, idx)).file_count;
    return idx;
  }
  /// Makes room in every per-directory array for `more` further add_dir
  /// calls (bulk builders); changes no value.  The fragment arena keeps
  /// room for one more block of 2^kMaxFragBits fragments on top, so the
  /// first split after a build does not move the whole arena.  Capacities
  /// at least double when they grow, so repeated small builds stay
  /// amortised O(1) per directory.
  void reserve_dirs(std::size_t more);
  /// Splits `d` into 2^bits fragments, redistributing per-frag file counts.
  /// Only legal to grow the fragmentation (bits >= current frag_bits).
  void fragment_dir(DirId d, std::uint8_t bits);
  /// The finest fragmentation fragment_dir accepts.
  static constexpr std::uint8_t kMaxFragBits = 10;

  /// Invoked after every effective split with (dir, old bits, new bits);
  /// the cluster installs this to feed the flight recorder.  The hook must
  /// not outlive its captures (it is called synchronously from
  /// fragment_dir and never stored elsewhere).
  using FragmentHook =
      std::function<void(DirId, std::uint8_t old_bits, std::uint8_t new_bits)>;
  void set_fragment_hook(FragmentHook hook) {
    fragment_hook_ = std::move(hook);
  }

  // -- Authority ------------------------------------------------------
  void set_auth(DirId d, MdsId m);
  void clear_auth(DirId d);
  void set_frag_auth(DirId d, FragId f, MdsId m);

  /// Resolved authority of directory `d` (cached).  Safe to call
  /// concurrently during the sharded tick phase (no pin may change then).
  [[nodiscard]] MdsId auth_of(DirId d) const {
    const std::uint64_t packed = auth_cache_.load(d);
    if ((packed >> 16) == dir_auth_gen_) return unpack_auth(packed);
    return resolve_and_fill(d);
  }
  /// Resolved authority of file `i` within `d` (respects frag pins).
  [[nodiscard]] MdsId auth_of_file(DirId d, FileIndex i) const {
    const MdsId pin = frag(d, frag_of(d, i)).auth_pin;
    return pin != kNoMds ? pin : auth_of(d);
  }
  /// Resolved authority of a migratable unit.
  [[nodiscard]] MdsId auth_of_subtree(const SubtreeRef& ref) const;
  /// Cache-free resolution by walking the pin chain (the invariant
  /// checker's oracle for the cache).
  [[nodiscard]] MdsId resolve_auth_uncached(DirId d) const;

  /// Moves the authority of a migratable unit to `to`, returning the number
  /// of inodes transferred (the unit's exclusive inode count).  This is the
  /// commit step performed by the migration engine.
  std::uint64_t migrate_subtree(const SubtreeRef& ref, MdsId to);

  /// Removes redundant pins: an explicit pin equal to what the directory
  /// would inherit anyway is dropped (CephFS's subtree-map trimming).
  void simplify_auth();

  // -- Statistics clock (lazy cutting-window advancement) ---------------
  /// The open statistics epoch; AccessRecorder::close_epoch() ticks it.
  [[nodiscard]] EpochId stats_clock() const { return stats_clock_; }
  void tick_stats_clock() { ++stats_clock_; }
  /// Per-epoch heat decay used when rolling lagging fragments forward;
  /// installed by the access recorder so every reader replays the same
  /// multiply sequence.
  void set_heat_decay(double decay) { heat_decay_ = decay; }
  [[nodiscard]] double heat_decay() const { return heat_decay_; }
  /// Rolls one fragment forward to the statistics clock.
  void advance_frag_stats(FragStats& frag) const {
    frag.advance_to(stats_clock_, heat_decay_);
  }
  /// Rolls every fragment of `d` forward to the statistics clock.
  void advance_dir_stats(DirId d) {
    for (FragStats& frag : frags(d)) advance_frag_stats(frag);
  }

  /// Prefetch hint (common/prefetch.h) for the first lines of `d`'s
  /// fragment block (one unsplit FragStats), for the recorder's fold.
  void prefetch_frags(DirId d) const {
    prefetch_lines(frag_arena_.data() + frag_base_[d], kFragPrefetchLines);
  }

  // -- Queries ---------------------------------------------------------
  [[nodiscard]] const Directory& dir(DirId d) const { return dirs_[d]; }
  [[nodiscard]] Directory& dir(DirId d) { return dirs_[d]; }
  [[nodiscard]] std::size_t dir_count() const { return dirs_.size(); }
  /// Directories plus files, summed over the file counts (O(dirs)).
  [[nodiscard]] std::uint64_t total_inodes() const;

  // -- Hot arena accessors ----------------------------------------------
  [[nodiscard]] DirId parent(DirId d) const { return parent_[d]; }
  /// Explicit authority pin (kNoMds = inherit); kNoMds for everything but
  /// subtree roots.
  [[nodiscard]] MdsId explicit_auth(DirId d) const {
    return explicit_auth_[d];
  }
  [[nodiscard]] std::uint8_t frag_bits(DirId d) const { return frag_bits_[d]; }
  [[nodiscard]] std::uint32_t frag_count(DirId d) const {
    return 1u << frag_bits_[d];
  }
  [[nodiscard]] bool fragmented(DirId d) const { return frag_bits_[d] != 0; }
  /// Fragment owning file index `i` of `d` (interleaved mapping).
  [[nodiscard]] FragId frag_of(DirId d, FileIndex i) const {
    return static_cast<FragId>(i & (frag_count(d) - 1));
  }
  [[nodiscard]] const FragStats& frag(DirId d, FragId f) const {
    return frag_arena_[frag_base_[d] + static_cast<std::uint32_t>(f)];
  }
  [[nodiscard]] FragStats& frag(DirId d, FragId f) {
    return frag_arena_[frag_base_[d] + static_cast<std::uint32_t>(f)];
  }
  /// All fragments of `d`, contiguous in the arena.  Invalidated by any
  /// split or add_dir (arena growth) — do not hold across mutations.
  [[nodiscard]] std::span<const FragStats> frags(DirId d) const {
    return {frag_arena_.data() + frag_base_[d], frag_count(d)};
  }
  [[nodiscard]] std::span<FragStats> frags(DirId d) {
    return {frag_arena_.data() + frag_base_[d], frag_count(d)};
  }

  /// Inodes in the subtree of `ref`, excluding descendants that are pinned
  /// elsewhere (i.e. what a migration of `ref` would actually move).
  [[nodiscard]] std::uint64_t exclusive_inodes(const SubtreeRef& ref) const;

  /// "/a/b/c" style path (for reports and debugging).
  [[nodiscard]] std::string path_of(DirId d) const;
  [[nodiscard]] std::uint32_t depth_of(DirId d) const;
  /// True if `ancestor` is on the root path of `d` (or equal to it).
  [[nodiscard]] bool is_ancestor(DirId ancestor, DirId d) const;

  /// Census of inode placement: inodes currently authoritative on each of
  /// `n_mds` servers (Figure 14a), by a scan of every directory and
  /// fragment.
  [[nodiscard]] std::vector<std::uint64_t> inodes_per_mds(
      std::size_t n_mds) const;

  /// All directories that are currently subtree roots (explicitly pinned),
  /// plus the tree root.
  [[nodiscard]] std::vector<DirId> subtree_roots() const;

  // -- Pin index --------------------------------------------------------
  /// Directories with an explicit authority pin or at least one pinned
  /// fragment, ascending (includes the root).  Failover, journal
  /// checkpoints and pin trimming iterate this instead of the whole
  /// namespace.
  [[nodiscard]] const std::set<DirId>& pinned_dirs() const {
    return pinned_dirs_;
  }

 private:
  /// Packs a resolved authority with the cache generation into one word.
  /// auth + 1 keeps the value field non-zero for rank 0 so an all-zero
  /// (freshly grown) entry can never decode as valid.
  static std::uint64_t pack_auth(std::uint64_t gen, MdsId auth) {
    return (gen << 16) |
           static_cast<std::uint16_t>(static_cast<std::uint32_t>(auth) + 1);
  }
  static MdsId unpack_auth(std::uint64_t packed) {
    return static_cast<MdsId>(static_cast<std::uint16_t>(packed)) - 1;
  }
  /// auth_of's miss path: walks the pin chain and fills the cache.
  [[nodiscard]] MdsId resolve_and_fill(DirId d) const;
  /// Directory-level pins changed: the flat resolution cache is stale.
  void invalidate_auth_cache() { ++dir_auth_gen_; }
  /// Adds `d` to the pin index or drops it, after its pins changed.
  void index_pins(DirId d);
  void count_frag_pin(DirId d, MdsId old_pin, MdsId new_pin);

  /// Lines prefetch_frags covers: one unsplit fragment block.
  static constexpr std::size_t kFragPrefetchLines =
      (sizeof(FragStats) + kCacheLineBytes - 1) / kCacheLineBytes;

  std::vector<Directory> dirs_;

  // Hot arenas, index-parallel with dirs_.
  std::vector<DirId> parent_;
  std::vector<MdsId> explicit_auth_;
  std::vector<std::uint8_t> frag_bits_;
  /// Offset of each directory's fragment block in frag_arena_.
  std::vector<std::uint32_t> frag_base_;
  /// Global fragment arena; splits append a new block (the refined block
  /// becomes a hole).
  std::vector<FragStats> frag_arena_;

  /// Invalidation clock of the flat cache; bumped only by directory-level
  /// pin changes (frag pins never alter what a directory inherits).
  std::uint64_t dir_auth_gen_ = 1;
  /// Flat resolution cache, one packed entry per directory:
  /// (generation << 16) | uint16(resolved auth + 1); valid while the
  /// generation field equals dir_auth_gen_.  Zero (generation 0) is never
  /// valid because dir_auth_gen_ starts at 1.
  AtomicU64Array auth_cache_;
  /// Scratch stack for iterative subtree traversals (serial phases only).
  mutable std::vector<DirId> dir_stack_;
  std::set<DirId> pinned_dirs_;
  EpochId stats_clock_ = 0;
  double heat_decay_ = 0.8;
  FragmentHook fragment_hook_;
};

}  // namespace lunule::fs
