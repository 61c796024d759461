// Tests for series resampling, table printer, and flags.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"

namespace lunule {
namespace {

// Report tables print long per-epoch series as bucket means (resample).
TEST(TimeSeries, ResampleAveragesBuckets) {
  std::vector<double> s;
  for (int i = 0; i < 8; ++i) s.push_back(i);  // 0..7
  const auto r = resample(s, 4);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 0.5);
  EXPECT_DOUBLE_EQ(r[3], 6.5);
}

TEST(TimeSeries, ResampleMoreBucketsThanSamples) {
  const std::vector<double> s{2, 4};
  const auto r = resample(s, 5);
  EXPECT_LE(r.size(), 5u);
  EXPECT_FALSE(r.empty());
}

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", TablePrinter::fmt(1.5, 1)});
  t.add_row({"longer-name", TablePrinter::fmt(std::int64_t{42})});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinter, PercentFormat) {
  EXPECT_EQ(TablePrinter::pct(0.1234), "+12.3%");
  EXPECT_EQ(TablePrinter::pct(-0.05, 0), "-5%");
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--a=1", "--b", "2", "--c"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("a", 0), 1);
  EXPECT_EQ(f.get("b"), "2");
  EXPECT_TRUE(f.get_bool("c"));
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("a", 0.0), 1.0);
  EXPECT_TRUE(f.has("a"));
  EXPECT_FALSE(f.has("zzz"));
  f.check_unused();  // everything queried: must not exit
}

}  // namespace
}  // namespace lunule
