#include "mds/migration_audit.h"

#include <algorithm>

namespace lunule::mds {

void MigrationAudit::on_commit(const fs::NamespaceTree& tree,
                               const fs::SubtreeRef& ref,
                               std::uint64_t inodes, EpochId epoch) {
  open_.push_back(Entry{
      .ref = ref,
      .frag_count_at_commit = tree.frag_count(ref.dir),
      .inodes = inodes,
      .committed = epoch,
  });
}

namespace {

std::uint64_t subtree_last_epoch_visits(fs::NamespaceTree& tree, DirId d) {
  std::uint64_t visits = 0;
  for (fs::FragStats& f : tree.frags(d)) {
    tree.advance_frag_stats(f);
    visits += f.windows.newest().visits;
  }
  for (const DirId c : tree.dir(d).children()) {
    visits += subtree_last_epoch_visits(tree, c);
  }
  return visits;
}

}  // namespace

std::uint64_t MigrationAudit::last_epoch_visits(fs::NamespaceTree& tree,
                                                const Entry& entry) {
  const DirId d = entry.ref.dir;
  if (entry.ref.is_frag()) {
    // Later splits refine fragments: with the interleaved mapping, every
    // current fragment f refines commit-time fragment (f & (count-1)).
    const std::uint32_t commit_mask = entry.frag_count_at_commit - 1;
    std::uint64_t visits = 0;
    for (FragId f = 0; f < static_cast<FragId>(tree.frag_count(d)); ++f) {
      if ((static_cast<std::uint32_t>(f) & commit_mask) ==
          static_cast<std::uint32_t>(entry.ref.frag)) {
        fs::FragStats& fs = tree.frag(d, f);
        tree.advance_frag_stats(fs);
        visits += fs.windows.newest().visits;
      }
    }
    return visits;
  }
  return subtree_last_epoch_visits(tree, entry.ref.dir);
}

void MigrationAudit::on_epoch_close(fs::NamespaceTree& tree, EpochId epoch) {
  std::vector<Entry> still_open;
  still_open.reserve(open_.size());
  for (Entry& e : open_) {
    e.visits += last_epoch_visits(tree, e);
    if (epoch - e.committed >= params_.observation_epochs) {
      if (e.visits >= params_.min_visits) {
        ++valid_;
      } else {
        ++invalid_;
        wasted_ += e.inodes;
      }
    } else {
      still_open.push_back(e);
    }
  }
  open_ = std::move(still_open);
}

}  // namespace lunule::mds
