#include "fs/builder.h"

#include "common/assert.h"

namespace lunule::fs {

namespace {

/// Adds /<name>, after making room for it and the `below` directories the
/// builder will add under it.
DirId mount_point(NamespaceTree& tree, const std::string& name,
                  std::size_t below) {
  LUNULE_CHECK(!name.empty());
  tree.reserve_dirs(1 + below);
  return tree.add_dir(tree.root(), name);
}

}  // namespace

std::vector<DirId> build_imagenet_like(NamespaceTree& tree,
                                       const std::string& name,
                                       std::uint32_t class_dirs,
                                       std::uint32_t files_per_dir) {
  const DirId top = mount_point(tree, name, class_dirs);
  std::vector<DirId> out;
  out.reserve(class_dirs);
  for (std::uint32_t c = 0; c < class_dirs; ++c) {
    const DirId d = tree.add_dir(top, "class" + std::to_string(c));
    tree.add_files(d, files_per_dir);
    out.push_back(d);
  }
  return out;
}

std::vector<DirId> build_corpus_like(NamespaceTree& tree,
                                     const std::string& name,
                                     std::uint32_t folders,
                                     std::uint32_t files_per_folder) {
  const DirId top = mount_point(tree, name, folders);
  std::vector<DirId> out;
  out.reserve(folders);
  for (std::uint32_t f = 0; f < folders; ++f) {
    const DirId d = tree.add_dir(top, "topic" + std::to_string(f));
    tree.add_files(d, files_per_folder);
    out.push_back(d);
  }
  return out;
}

WebTreeLayout build_web_tree(NamespaceTree& tree, const std::string& name,
                             std::uint32_t sections,
                             std::uint32_t dirs_per_section,
                             std::uint32_t files_per_dir) {
  const DirId top = mount_point(
      tree, name, static_cast<std::size_t>(sections) * (1 + dirs_per_section));
  WebTreeLayout layout;
  layout.leaf_dirs.reserve(static_cast<std::size_t>(sections) *
                           dirs_per_section);
  for (std::uint32_t s = 0; s < sections; ++s) {
    const DirId section = tree.add_dir(top, "section" + std::to_string(s));
    for (std::uint32_t d = 0; d < dirs_per_section; ++d) {
      const DirId leaf = tree.add_dir(section, "dir" + std::to_string(d));
      tree.add_files(leaf, files_per_dir);
      layout.leaf_dirs.push_back(leaf);
      layout.total_files += files_per_dir;
    }
  }
  return layout;
}

std::vector<DirId> build_private_dirs(NamespaceTree& tree,
                                      const std::string& name,
                                      std::uint32_t clients,
                                      std::uint32_t files_per_dir) {
  const DirId top = mount_point(tree, name, clients);
  std::vector<DirId> out;
  out.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    const DirId d = tree.add_dir(top, "client" + std::to_string(c));
    if (files_per_dir > 0) tree.add_files(d, files_per_dir);
    out.push_back(d);
  }
  return out;
}

}  // namespace lunule::fs
