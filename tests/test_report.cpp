// Tests for the report printers and the shape checker.
#include "sim/report.h"

#include <gtest/gtest.h>
#include <sstream>

namespace lunule::sim {
namespace {

SeriesBundle sample_bundle() {
  SeriesBundle bundle(10.0);
  bundle.add("MDS-1");
  bundle.add("MDS-2");
  for (int i = 0; i < 24; ++i) {
    bundle.at(0).push(100.0 + i);
    bundle.at(1).push(50.0);
  }
  return bundle;
}

TEST(Report, SeriesBundleTablePrintsBuckets) {
  const SeriesBundle bundle = sample_bundle();
  std::ostringstream os;
  ReportOptions opts;
  opts.buckets = 4;
  print_series_bundle(os, "demo", bundle, opts);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("MDS-1"), std::string::npos);
  EXPECT_NE(out.find("MDS-2"), std::string::npos);
  // 4 bucket rows + header + 3 rules.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1 + 4 + 1 + 3);
}

TEST(Report, SeriesBundleCsvMode) {
  const SeriesBundle bundle = sample_bundle();
  std::ostringstream os;
  ReportOptions opts;
  opts.buckets = 2;
  opts.csv = true;
  print_series_bundle(os, "demo", bundle, opts);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("t(min),MDS-1,MDS-2", 0), 0u);  // CSV header first
  EXPECT_EQ(out.find("demo"), std::string::npos);     // no title in CSV
}

TEST(Report, SeriesColumnsAlignsDifferentLengths) {
  TimeSeries longer("long");
  TimeSeries shorter("short");
  for (int i = 0; i < 20; ++i) longer.push(i);
  for (int i = 0; i < 5; ++i) shorter.push(i);
  std::ostringstream os;
  ReportOptions opts;
  opts.buckets = 5;
  print_series_columns(os, "cols", {&longer, &shorter}, {"long", "short"},
                       10.0, opts);
  const std::string out = os.str();
  EXPECT_NE(out.find("long"), std::string::npos);
  EXPECT_NE(out.find("short"), std::string::npos);
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
  SeriesBundle empty(10.0);
  empty.add("only");
  std::ostringstream os;
  print_series_bundle(os, "empty", empty, ReportOptions{});
  EXPECT_FALSE(os.str().empty());  // header still renders
}

}  // namespace
}  // namespace lunule::sim
