// Tests for Apache access-log parsing/generation and the round trip
// through the on-disk format.
#include "workloads/apache_log.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "fs/builder.h"

namespace lunule::workloads {
namespace {

TEST(ApacheLog, ParsesCommonLogFormat) {
  const auto e = parse_log_line(
      R"(127.0.0.1 - - [23/Aug/2013:10:01:02 -0400] "GET /a/b/file17 HTTP/1.1" 200 512)");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->method, "GET");
  EXPECT_EQ(e->path, "/a/b/file17");
  EXPECT_EQ(e->status, 200);
  EXPECT_EQ(e->bytes, 512u);
}

TEST(ApacheLog, ToleratesCombinedFormatTail) {
  const auto e = parse_log_line(
      R"(10.1.1.1 - frank [10/Oct/2000:13:55:36 -0700] "GET /x/file0 HTTP/1.0" 404 - "http://ref" "Mozilla/4.08")");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->status, 404);
  EXPECT_EQ(e->bytes, 0u);  // "-" means no body
}

TEST(ApacheLog, RejectsMalformedLines) {
  EXPECT_FALSE(parse_log_line("").has_value());
  EXPECT_FALSE(parse_log_line("garbage without quotes").has_value());
  EXPECT_FALSE(parse_log_line(R"(h - - [t] "GET" 200 1)").has_value());
  EXPECT_FALSE(
      parse_log_line(R"(h - - [t] "GET relative HTTP/1.1" 200 1)").has_value());
  EXPECT_FALSE(
      parse_log_line(R"(h - - [t] "GET /p HTTP/1.1" abc 1)").has_value());
}

class ApacheLogRoundTrip : public ::testing::Test {
 protected:
  ApacheLogRoundTrip() {
    layout = fs::build_web_tree(tree, "web", 2, 3, 20);
    trace = std::make_unique<WebTrace>(layout.leaf_dirs, 20, 500, 0.9,
                                       Rng(42));
  }

  fs::NamespaceTree tree;
  fs::WebTreeLayout layout;
  std::unique_ptr<WebTrace> trace;
};

TEST_F(ApacheLogRoundTrip, FormatThenParseRecoversEveryRecord) {
  std::stringstream log;
  write_log(log, tree, *trace);

  const ImportedLog imported = import_log(log);
  EXPECT_EQ(imported.malformed_lines, 0u);
  ASSERT_EQ(imported.records.size(), trace->records().size());
  // The imported tree names no files: a leaf is the file index import_log
  // gave it.  Each original (dir, fileN) must map to one imported file, and
  // no two originals to the same one.
  using Leaf = std::pair<DirId, FileIndex>;
  std::map<Leaf, Leaf> imported_leaf;
  std::set<Leaf> taken;
  for (std::size_t i = 0; i < imported.records.size(); ++i) {
    const TraceRecord& want = trace->records()[i];
    const TraceRecord& got = imported.records[i];
    EXPECT_EQ(imported.tree->path_of(got.dir), tree.path_of(want.dir)) << i;
    const auto [it, first] = imported_leaf.emplace(
        Leaf{want.dir, want.file}, Leaf{got.dir, got.file});
    EXPECT_EQ(it->second, Leaf(got.dir, got.file)) << i;
    if (first) {
      EXPECT_TRUE(taken.insert(it->second).second) << i;
    }
  }
  EXPECT_EQ(imported.distinct_files, imported_leaf.size());
}

TEST_F(ApacheLogRoundTrip, FormattedLinesAreWellFormed) {
  const std::string line =
      format_log_line(tree, trace->records()[0], /*sequence=*/125);
  const auto parsed = parse_log_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_NE(line.find("00:02:05"), std::string::npos);  // 125 s = 2m05s
}

TEST(ImportLog, BuildsNamespaceFromArbitraryPaths) {
  std::stringstream log;
  log << R"(h - - [t] "GET /blog/2013/post.html HTTP/1.1" 200 1)" << "\n"
      << R"(h - - [t] "GET /blog/2013/post.html HTTP/1.1" 200 1)" << "\n"
      << R"(h - - [t] "GET /blog/2013/other.html HTTP/1.1" 200 1)" << "\n"
      << R"(h - - [t] "GET /img/logo.png HTTP/1.1" 200 1)" << "\n"
      << "garbage\n";
  const ImportedLog imported = import_log(log);
  EXPECT_EQ(imported.malformed_lines, 1u);
  EXPECT_EQ(imported.distinct_files, 3u);
  ASSERT_EQ(imported.records.size(), 4u);
  // Re-accesses map to the same (dir, file).
  EXPECT_EQ(imported.records[0].dir, imported.records[1].dir);
  EXPECT_EQ(imported.records[0].file, imported.records[1].file);
  EXPECT_EQ(imported.records[0].dir, imported.records[2].dir);
  EXPECT_NE(imported.records[0].file, imported.records[2].file);
  EXPECT_NE(imported.records[0].dir, imported.records[3].dir);
  // The tree mirrors the path structure.
  EXPECT_EQ(imported.tree->path_of(imported.records[0].dir), "/blog/2013");
  EXPECT_EQ(imported.tree->path_of(imported.records[3].dir), "/img");
  // No file starts out visited: the replay must observe first visits.
  const fs::Directory& blog = imported.tree->dir(imported.records[0].dir);
  for (FileIndex i = 0; i < blog.file_count(); ++i) {
    EXPECT_FALSE(blog.file(i).visited());
  }
}

TEST(ImportLog, RootLevelFilesLandInRoot) {
  std::stringstream log;
  log << R"(h - - [t] "GET /index.html HTTP/1.1" 200 1)" << "\n";
  const ImportedLog imported = import_log(log);
  ASSERT_EQ(imported.records.size(), 1u);
  EXPECT_EQ(imported.records[0].dir, imported.tree->root());
}

TEST(ImportLog, RoundTripsThroughWebTraceWrapper) {
  std::stringstream log;
  for (int i = 0; i < 10; ++i) {
    log << R"(h - - [t] "GET /d/f)" << i % 3 << R"( HTTP/1.1" 200 1)" << "\n";
  }
  ImportedLog imported = import_log(log);
  const WebTrace trace = WebTrace::from_records(std::move(imported.records),
                                                imported.distinct_files);
  EXPECT_EQ(trace.records().size(), 10u);
  EXPECT_EQ(trace.universe_files(), 3u);
}

}  // namespace
}  // namespace lunule::workloads
