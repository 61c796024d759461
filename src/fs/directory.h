// A directory node of the simulated namespace.
//
// The tree is stored flat (index-based) inside NamespaceTree: a
// directory's DirId is its index there, and its parent link lives in the
// tree's parent arena.  Directory carries only the *cold* per-directory
// state (name, children, file states).  Everything the hot paths walk
// lives in flat arrays indexed by DirId: parent links, explicit authority
// pins, fragmentation level and the per-fragment statistics in
// NamespaceTree's "hot arenas", and the access recorder's per-directory
// epoch bookkeeping (touched stamp, expiry and window-liveness bounds) in
// arrays the recorder owns.  So authority resolution, epoch close, and
// candidate collection traverse contiguous memory instead of chasing
// per-directory heap allocations.  Subtree authority follows CephFS
// semantics: a directory either pins an explicit authority (making it a
// subtree root / subtree bound) or inherits its parent's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "fs/file_state.h"

namespace lunule::fs {

class Directory {
 public:
  explicit Directory(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<DirId>& children() const {
    return children_;
  }
  /// Position of this directory in its parent's children() (set by
  /// NamespaceTree::add_dir; children are only ever appended).  0 for the
  /// root.
  [[nodiscard]] std::uint32_t sibling_index() const { return sibling_index_; }

  [[nodiscard]] std::uint32_t file_count() const {
    return static_cast<std::uint32_t>(files_.size());
  }

  [[nodiscard]] const FileState& file(FileIndex i) const { return files_[i]; }
  [[nodiscard]] FileState& file(FileIndex i) { return files_[i]; }

  /// Number of fragments carrying an explicit authority pin (maintained by
  /// NamespaceTree so pinned directories are indexable without a scan).
  [[nodiscard]] std::uint32_t frag_pin_count() const {
    return frag_pin_count_;
  }

 private:
  friend class NamespaceTree;

  std::string name_;
  std::vector<DirId> children_;
  std::vector<FileState> files_;
  std::uint32_t frag_pin_count_ = 0;
  std::uint32_t sibling_index_ = 0;
};

}  // namespace lunule::fs
