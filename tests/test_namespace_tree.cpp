// Unit tests for the namespace tree and subtree-authority semantics.
#include "fs/namespace_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fs/builder.h"

namespace lunule::fs {
namespace {

class NamespaceTreeTest : public ::testing::Test {
 protected:
  NamespaceTree tree;
};

TEST_F(NamespaceTreeTest, RootIsPinnedToMdsZero) {
  EXPECT_EQ(tree.auth_of(tree.root()), 0);
  EXPECT_EQ(tree.total_inodes(), 1u);
  EXPECT_EQ(tree.path_of(tree.root()), "/");
}

TEST_F(NamespaceTreeTest, ChildrenInheritAuthority) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(a, "b");
  EXPECT_EQ(tree.auth_of(a), 0);
  EXPECT_EQ(tree.auth_of(b), 0);
  tree.set_auth(a, 3);
  EXPECT_EQ(tree.auth_of(a), 3);
  EXPECT_EQ(tree.auth_of(b), 3);  // inherits through the pin
  EXPECT_EQ(tree.auth_of(tree.root()), 0);
}

TEST_F(NamespaceTreeTest, AuthCacheInvalidatedByGeneration) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(a, "b");
  EXPECT_EQ(tree.auth_of(b), 0);  // warms the cache
  tree.set_auth(a, 2);
  EXPECT_EQ(tree.auth_of(b), 2);  // cache must not serve the stale value
}

TEST_F(NamespaceTreeTest, ClearAuthRestoresInheritance) {
  const DirId a = tree.add_dir(tree.root(), "a");
  tree.set_auth(a, 4);
  tree.clear_auth(a);
  EXPECT_EQ(tree.auth_of(a), 0);
}

TEST_F(NamespaceTreeTest, SubtreeInodeAccounting) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(a, "b");
  tree.add_files(b, 10);
  // root + a + b + 10 files.
  EXPECT_EQ(tree.total_inodes(), 13u);
  EXPECT_EQ(tree.exclusive_inodes({.dir = a}), 12u);
  EXPECT_EQ(tree.exclusive_inodes({.dir = b}), 11u);
}

TEST_F(NamespaceTreeTest, CreateFileGrowsCounts) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const FileIndex f0 = tree.create_file(a);
  const FileIndex f1 = tree.create_file(a);
  EXPECT_EQ(f0, 0u);
  EXPECT_EQ(f1, 1u);
  EXPECT_EQ(tree.dir(a).file_count(), 2u);
  EXPECT_EQ(tree.frag(a, 0).file_count, 2u);
  EXPECT_EQ(tree.total_inodes(), 4u);
}

TEST_F(NamespaceTreeTest, ExclusiveInodesStopsAtBounds) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(a, "b");
  const DirId c = tree.add_dir(a, "c");
  tree.add_files(b, 5);
  tree.add_files(c, 7);
  EXPECT_EQ(tree.exclusive_inodes({.dir = a}), 1u + 1 + 5 + 1 + 7);
  tree.set_auth(c, 2);  // c becomes a bound: excluded from a's migration
  EXPECT_EQ(tree.exclusive_inodes({.dir = a}), 1u + 1 + 5);
}

TEST_F(NamespaceTreeTest, MigrateSubtreeMovesAndCounts) {
  const DirId a = tree.add_dir(tree.root(), "a");
  tree.add_files(a, 9);
  const std::uint64_t moved = tree.migrate_subtree({.dir = a}, 3);
  EXPECT_EQ(moved, 10u);  // dir + 9 files
  EXPECT_EQ(tree.auth_of(a), 3);
}

TEST_F(NamespaceTreeTest, FragAuthorityOverridesDir) {
  const DirId a = tree.add_dir(tree.root(), "a");
  tree.add_files(a, 16);
  tree.fragment_dir(a, 2);  // 4 frags
  tree.set_frag_auth(a, 1, 4);
  EXPECT_EQ(tree.auth_of_file(a, 0), 0);  // frag 0 inherits
  EXPECT_EQ(tree.auth_of_file(a, 1), 4);  // frag 1 pinned
  EXPECT_EQ(tree.auth_of_file(a, 5), 4);  // 5 & 3 == 1
  EXPECT_EQ(tree.auth_of_subtree({.dir = a, .frag = 1}), 4);
}

TEST_F(NamespaceTreeTest, MigrateFragMovesOnlyFragFiles) {
  const DirId a = tree.add_dir(tree.root(), "a");
  tree.add_files(a, 16);
  tree.fragment_dir(a, 2);
  const std::uint64_t moved = tree.migrate_subtree({.dir = a, .frag = 2}, 1);
  EXPECT_EQ(moved, 4u);  // 16 files over 4 frags
  EXPECT_EQ(tree.auth_of_file(a, 2), 1);
  EXPECT_EQ(tree.auth_of_file(a, 0), 0);
  // The dir migration now excludes the pinned frag.
  EXPECT_EQ(tree.exclusive_inodes({.dir = a}), 1u + 12);
}

TEST_F(NamespaceTreeTest, SimplifyDropsRedundantPins) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(a, "b");
  tree.set_auth(a, 2);
  tree.set_auth(b, 2);  // redundant: would inherit 2 anyway
  tree.simplify_auth();
  EXPECT_EQ(tree.explicit_auth(b), kNoMds);
  EXPECT_EQ(tree.explicit_auth(a), 2);
  EXPECT_EQ(tree.auth_of(b), 2);
}

TEST_F(NamespaceTreeTest, SimplifyKeepsMeaningfulPins) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(a, "b");
  tree.set_auth(a, 2);
  tree.set_auth(b, 3);
  tree.simplify_auth();
  EXPECT_EQ(tree.auth_of(b), 3);
}

TEST_F(NamespaceTreeTest, InodesPerMdsConservation) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(tree.root(), "b");
  tree.add_files(a, 10);
  tree.add_files(b, 20);
  tree.set_auth(b, 1);
  const auto census = tree.inodes_per_mds(2);
  EXPECT_EQ(census[0] + census[1], tree.total_inodes());
  EXPECT_EQ(census[1], 21u);
}

TEST_F(NamespaceTreeTest, PathsDepthsAncestry) {
  const DirId a = tree.add_dir(tree.root(), "a");
  const DirId b = tree.add_dir(a, "b");
  EXPECT_EQ(tree.path_of(b), "/a/b");
  EXPECT_EQ(tree.depth_of(b), 2u);
  EXPECT_TRUE(tree.is_ancestor(tree.root(), b));
  EXPECT_TRUE(tree.is_ancestor(a, b));
  EXPECT_TRUE(tree.is_ancestor(b, b));
  EXPECT_FALSE(tree.is_ancestor(b, a));
}

TEST_F(NamespaceTreeTest, SubtreeRootsListsPins) {
  const DirId a = tree.add_dir(tree.root(), "a");
  tree.set_auth(a, 1);
  const auto roots = tree.subtree_roots();
  ASSERT_EQ(roots.size(), 2u);  // "/" and "a"
  EXPECT_EQ(roots[0], tree.root());
  EXPECT_EQ(roots[1], a);
}

TEST_F(NamespaceTreeTest, SiblingIndexIsPositionInParentChildren) {
  build_web_tree(tree, "web", 3, 40, 2);
  build_imagenet_like(tree, "cnn", 50, 1);
  build_private_dirs(tree, "zipf", 20, 0);
  EXPECT_EQ(tree.dir(tree.root()).sibling_index(), 0u);
  for (DirId d = 1; d < tree.dir_count(); ++d) {
    const auto& siblings = tree.dir(tree.parent(d)).children();
    const std::uint32_t idx = tree.dir(d).sibling_index();
    ASSERT_LT(idx, siblings.size()) << "dir " << d;
    EXPECT_EQ(siblings[idx], d) << "dir " << d;
  }
}

// -- Deep-chain authority resolution --------------------------------------
// Resolution and subtree traversals are iterative: a recursive resolver
// would walk (and allocate stack for) every level of this chain.

TEST(DeepChain, IterativeAuthorityResolutionHandlesDeepTrees) {
  constexpr int kDepth = 20000;
  NamespaceTree tree;
  std::vector<DirId> chain;
  chain.reserve(kDepth);
  DirId parent = tree.root();
  for (int i = 0; i < kDepth; ++i) {
    parent = tree.add_dir(parent, "d");
    chain.push_back(parent);
  }
  tree.add_files(chain.back(), 10);

  // Root-only pins: the leaf inherits across the whole chain.
  const DirId leaf = chain.back();
  EXPECT_EQ(tree.auth_of(leaf), 0);
  // A pin half-way down shadows the root for everything beneath it.
  const DirId mid = chain[kDepth / 2];
  tree.set_auth(mid, 3);
  EXPECT_EQ(tree.auth_of(leaf), 3);
  EXPECT_EQ(tree.auth_of(chain[kDepth / 2 - 1]), 0);
  // Cache and the pin-chain walk agree at every probe depth.
  for (const DirId probe : {chain.front(), mid, leaf}) {
    EXPECT_EQ(tree.auth_of(probe), tree.resolve_auth_uncached(probe));
  }
  EXPECT_EQ(tree.resolve_auth_uncached(leaf), 3);

  // Subtree traversals (also iterative) survive the same depth.
  EXPECT_EQ(tree.exclusive_inodes({.dir = mid}),
            static_cast<std::uint64_t>(kDepth / 2) + 10);
  EXPECT_EQ(tree.migrate_subtree({.dir = chain.back()}, 1), 10u + 1u);
  EXPECT_EQ(tree.auth_of(leaf), 1);
  // Re-pinning the leaf to what it would inherit anyway must simplify away.
  tree.migrate_subtree({.dir = leaf}, 3);
  tree.simplify_auth();
  EXPECT_EQ(tree.explicit_auth(leaf), kNoMds);
  EXPECT_EQ(tree.auth_of(leaf), 3);
}

}  // namespace
}  // namespace lunule::fs
