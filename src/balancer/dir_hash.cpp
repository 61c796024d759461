#include "balancer/dir_hash.h"

#include <string>
#include <vector>

#include "balancer/candidates.h"
#include "common/rng.h"
#include "fs/namespace_tree.h"

namespace lunule::balancer {

namespace {

std::uint64_t hash_path(const std::string& path) {
  // FNV-1a over the path bytes, then a strong finalizer.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : path) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

}  // namespace

void DirHashBalancer::setup(mds::MdsCluster& cluster) {
  fs::NamespaceTree& tree = cluster.tree();
  // Pin onto the serving set, not the configured pool: with an elastic
  // pool, ranks past initial_active are cold standbys at setup time and a
  // hash slot landing on one would strand its subtree on a rank that serves
  // nothing.  When every rank is up this is the identity mapping
  // (alive[h % n] == h % n), so fixed-pool traces are unchanged.
  std::vector<MdsId> alive;
  alive.reserve(cluster.size());
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    if (cluster.is_up(static_cast<MdsId>(r))) {
      alive.push_back(static_cast<MdsId>(r));
    }
  }
  const auto n = static_cast<std::uint64_t>(alive.size());

  for (DirId d = 1; d < tree.dir_count(); ++d) {
    fs::Directory& dir = tree.dir(d);
    if (!is_leaf_unit(dir)) continue;
    if (dir.file_count() >= params_.fragment_threshold &&
        tree.frag_bits(d) < params_.fragment_bits) {
      tree.fragment_dir(d, params_.fragment_bits);
    }
    const std::string path = tree.path_of(d);
    if (tree.fragmented(d)) {
      for (FragId f = 0;
           f < static_cast<FragId>(tree.frag_count(d)); ++f) {
        const std::uint64_t h =
            hash_path(path + "#" + std::to_string(f));
        tree.set_frag_auth(d, f, alive[h % n]);
      }
    } else {
      tree.set_auth(d, alive[hash_path(path) % n]);
    }
  }
}

}  // namespace lunule::balancer
