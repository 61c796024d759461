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

  // The forms the perfbench harness passes: "--seed=%d" and a Python float.
  const char* harness[] = {"prog", "--seed=-1", "--seconds=30.0",
                           "--clients=0", "--scale=1e-2"};
  Flags h(5, const_cast<char**>(harness));
  EXPECT_EQ(h.get_int("seed", 0), -1);
  EXPECT_DOUBLE_EQ(h.get_double("seconds", 0.0), 30.0);
  EXPECT_EQ(h.get_count("clients", 7), 0u);
  EXPECT_DOUBLE_EQ(h.get_double("scale", 0.0), 0.01);

  // A value that does not parse whole exits 2 naming the flag, like an
  // unknown flag, instead of running with the prefix that parsed.
  const auto parse = [](const char* arg, const char* next = nullptr) {
    const char* args[] = {"prog", arg, next};
    return Flags(next != nullptr ? 3 : 2, const_cast<char**>(args));
  };
  EXPECT_EXIT((void)parse("--ticks=abc").get_int("ticks", 1),
              ::testing::ExitedWithCode(2), "--ticks: 'abc'");
  EXPECT_EXIT((void)parse("--seed=banana").get_int("seed", 42),
              ::testing::ExitedWithCode(2), "--seed: 'banana'");
  EXPECT_EXIT((void)parse("--ticks=1e6").get_int("ticks", 1),
              ::testing::ExitedWithCode(2), "--ticks: '1e6'");
  EXPECT_EXIT((void)parse("--scale=0.1abc").get_double("scale", 1.0),
              ::testing::ExitedWithCode(2), "--scale: '0.1abc'");
  EXPECT_EXIT((void)parse("--count", "abc").get_count("count", 100),
              ::testing::ExitedWithCode(2), "--count: 'abc'");
  EXPECT_EXIT((void)parse("--clients=-5").get_count("clients", 100),
              ::testing::ExitedWithCode(2), "--clients: '-5'");
  EXPECT_EXIT((void)parse("--buckets=").get_count("buckets", 12),
              ::testing::ExitedWithCode(2), "--buckets: ''");
}

}  // namespace
}  // namespace lunule
