// Tests for the report printers and the shape checker.
#include "sim/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "fs/namespace_tree.h"
#include "mds/cluster.h"

namespace lunule::sim {
namespace {

/// Two ranks over 24 epochs of 10 s: MDS-1 ramps, MDS-2 stays flat.
MetricsCollector sample_run() {
  fs::NamespaceTree tree;
  mds::ClusterParams params;
  params.n_mds = 2;
  const mds::MdsCluster cluster(tree, params);
  MetricsCollector m(10.0, core::IfParams{});
  for (int i = 0; i < 24; ++i) {
    const std::vector<Load> loads{100.0 + i, 50.0};
    m.on_epoch(cluster, loads);
  }
  return m;
}

TEST(Report, SeriesBundleTablePrintsBuckets) {
  std::ostringstream os;
  ReportOptions opts;
  opts.buckets = 4;
  print_per_mds_iops(os, "demo", sample_run(), opts);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("MDS-1"), std::string::npos);
  EXPECT_NE(out.find("MDS-2"), std::string::npos);
  // 4 bucket rows + header + 3 rules.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1 + 4 + 1 + 3);
  // The last bucket ends at 24 epochs x 10 s = 4 minutes.
  EXPECT_NE(out.find("4.0"), std::string::npos);
}

TEST(Report, SeriesBundleCsvMode) {
  std::ostringstream os;
  ReportOptions opts;
  opts.buckets = 2;
  opts.csv = true;
  print_per_mds_iops(os, "demo", sample_run(), opts);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("t(min),MDS-1,MDS-2", 0), 0u);  // CSV header first
  EXPECT_EQ(out.find("demo"), std::string::npos);     // no title in CSV
  // Bucket means of MDS-1's ramp, one decimal.
  EXPECT_NE(out.find("2.0,105.5,50.0"), std::string::npos);
  EXPECT_NE(out.find("4.0,117.5,50.0"), std::string::npos);
}

TEST(Report, SeriesColumnsAlignsDifferentLengths) {
  std::vector<double> longer;
  std::vector<double> shorter;
  for (int i = 0; i < 20; ++i) longer.push_back(i);
  for (int i = 0; i < 5; ++i) shorter.push_back(i);
  std::ostringstream os;
  ReportOptions opts;
  opts.buckets = 5;
  opts.csv = true;
  print_series(os, "cols", {{"long", longer}, {"short", shorter}}, 10.0,
               /*digits=*/3, opts);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("t(min),long,short", 0), 0u);
  // Each column is resampled over its own length; the time axis spans the
  // longer one (20 epochs x 10 s = 200 s).
  EXPECT_NE(out.find("0.7,1.500,0.000"), std::string::npos);
  EXPECT_NE(out.find("3.3,17.500,4.000"), std::string::npos);
}

TEST(Report, ShapeCheckerAggregatesResults) {
  ShapeChecker checks;
  checks.expect(true, "always true");
  EXPECT_TRUE(checks.all_ok());
  EXPECT_EQ(checks.exit_code(), 0);
  checks.expect(false, "always false");
  EXPECT_FALSE(checks.all_ok());
  EXPECT_EQ(checks.exit_code(), 1);

  std::ostringstream os;
  checks.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("[SHAPE-CHECK]"), std::string::npos);
  EXPECT_NE(out.find("PASS  always true"), std::string::npos);
  EXPECT_NE(out.find("FAIL  always false"), std::string::npos);
}

TEST(Report, EmptyBundlePrintsNothingFatal) {
  std::ostringstream os;
  print_series(os, "empty", {{"only", {}}}, 10.0, /*digits=*/1,
               ReportOptions{});
  EXPECT_FALSE(os.str().empty());  // header still renders
}

}  // namespace
}  // namespace lunule::sim
