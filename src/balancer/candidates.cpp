#include "balancer/candidates.h"

#include <algorithm>

#include "mds/cluster.h"

namespace lunule::balancer {

namespace {

Candidate frag_candidate(fs::NamespaceTree& tree, const fs::SubtreeRef& ref,
                         MdsId auth) {
  fs::FragStats& fs = tree.frag(ref.dir, ref.frag);
  tree.advance_frag_stats(fs);
  Candidate c;
  c.ref = ref;
  c.auth = auth;
  c.inodes = fs.file_count;
  c.heat = fs.heat;
  c.windows = fs.windows.sums();
  c.visits_last_epoch = fs.windows.newest().visits;
  c.unvisited = fs.unvisited_files();
  return c;
}

Candidate whole_dir_candidate(fs::NamespaceTree& tree, DirId d, MdsId auth) {
  Candidate c;
  c.ref = fs::SubtreeRef{.dir = d};
  c.auth = auth;
  c.inodes = tree.exclusive_inodes(c.ref);
  // One pass over the raw per-frag statistics; no per-frag authority
  // resolution or Candidate materialisation is needed just to sum scalars.
  for (fs::FragStats& frag : tree.frags(d)) {
    tree.advance_frag_stats(frag);
    c.heat += frag.heat;
    c.windows += frag.windows.sums();
    c.visits_last_epoch += frag.windows.newest().visits;
    c.unvisited += frag.unvisited_files();
  }
  return c;
}

/// Appends the units of `d` that `owner` has authority over.  Authority is
/// resolved first, so a unit on another rank is neither rolled forward nor
/// summed: lazy advancement yields the same fragment state whenever the
/// roll happens, so skipping the read changes nothing observable.  An
/// unsplit directory on another rank is skipped before its Directory is
/// even loaded.
void collect_dir(std::vector<Candidate>& out, fs::NamespaceTree& tree,
                 DirId d, MdsId owner) {
  if (d == tree.root()) return;
  if (tree.fragmented(d)) {
    if (!is_leaf_unit(tree.dir(d))) return;
    for (FragId f = 0; f < static_cast<FragId>(tree.frag_count(d)); ++f) {
      const fs::SubtreeRef ref{.dir = d, .frag = f};
      if (tree.auth_of_subtree(ref) == owner) {
        out.push_back(frag_candidate(tree, ref, owner));
      }
    }
    return;
  }
  if (tree.auth_of(d) == owner && is_leaf_unit(tree.dir(d))) {
    out.push_back(whole_dir_candidate(tree, d, owner));
  }
}

/// Directories per parallel collection chunk; chunk outputs concatenate in
/// chunk order, so the result equals the serial ascending scan.
constexpr std::size_t kCollectChunk = 512;

}  // namespace

bool is_leaf_unit(const fs::Directory& dir) {
  return dir.file_count() > 0 || dir.children().empty();
}

std::vector<Candidate> collect_candidates(fs::NamespaceTree& tree,
                                          MdsId owner,
                                          const std::vector<DirId>* live_dirs,
                                          WorkerPool* pool) {
  std::vector<Candidate> out;
  collect_candidates_into(out, tree, owner, live_dirs, pool);
  return out;
}

void collect_candidates_into(std::vector<Candidate>& out,
                             fs::NamespaceTree& tree, MdsId owner,
                             const std::vector<DirId>* live_dirs,
                             WorkerPool* pool) {
  out.clear();
  const std::size_t n =
      live_dirs != nullptr ? live_dirs->size() : tree.dir_count();
  auto dir_at = [&](std::size_t k) {
    return live_dirs != nullptr ? (*live_dirs)[k] : static_cast<DirId>(k);
  };
  if (pool == nullptr || pool->workers() == 0 || n < 2 * kCollectChunk) {
    // `live_dirs` is sorted ascending, so enumeration order matches the
    // whole-namespace scan restricted to the live set.
    for (std::size_t k = 0; k < n; ++k) {
      collect_dir(out, tree, dir_at(k), owner);
    }
    return;
  }
  // Parallel path: chunks of distinct directories touch disjoint fragment
  // state (lazy advancement is per-dir) and auth_of is concurrency-safe;
  // concatenating the per-chunk vectors in chunk order reproduces the
  // serial enumeration byte for byte.
  const std::size_t chunks = (n + kCollectChunk - 1) / kCollectChunk;
  std::vector<std::vector<Candidate>> per_chunk(chunks);
  pool->run_indexed(chunks, [&](std::size_t c) {
    const std::size_t lo = c * kCollectChunk;
    const std::size_t hi = std::min(n, lo + kCollectChunk);
    for (std::size_t k = lo; k < hi; ++k) {
      collect_dir(per_chunk[c], tree, dir_at(k), owner);
    }
  });
  std::size_t total = 0;
  for (const auto& chunk : per_chunk) total += chunk.size();
  out.reserve(total);
  for (auto& chunk : per_chunk) {
    for (Candidate& c : chunk) out.push_back(std::move(c));
  }
}

void walk_heat_share(
    std::vector<Candidate>& cands, mds::MdsCluster& cluster, MdsId owner,
    double owner_load,
    const std::function<bool(const Candidate& unit, double est_load)>& visit) {
  collect_candidates_into(cands, cluster.tree(), owner,
                          cluster.candidate_dirs(), cluster.shard_pool());
  // Summed before the walk reorders the list: a different summation order
  // could move the total's last bit, and with it every estimate.
  double total_heat = 0.0;
  for (const Candidate& c : cands) total_heat += c.heat;
  if (total_heat <= 0.0) return;
  walk_in_order(cands, heat_order, [&](const Candidate& c) {
    if (c.heat <= 0.0) return false;  // the rest are cold
    return visit(c, owner_load * (c.heat / total_heat));
  });
}

Candidate make_candidate(fs::NamespaceTree& tree,
                         const fs::SubtreeRef& ref) {
  const MdsId auth = tree.auth_of_subtree(ref);
  if (ref.is_frag()) return frag_candidate(tree, ref, auth);
  return whole_dir_candidate(tree, ref.dir, auth);
}

}  // namespace lunule::balancer
