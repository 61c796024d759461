// Tests for ring buffer, series resampling, table printer, and flags.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/flags.h"
#include "common/ring_buffer.h"
#include "common/stats.h"
#include "common/table.h"

namespace lunule {
namespace {

TEST(RingBuffer, FillsThenEvictsOldest) {
  RingBuffer<int, 3> rb;
  EXPECT_TRUE(rb.empty());
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.window_sum(), 6);
  rb.push(4);  // evicts 1
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.window_sum(), 9);
  EXPECT_EQ(rb.at(0), 4);  // newest
  EXPECT_EQ(rb.at(2), 2);  // oldest
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<double, 4> rb;
  rb.push(1.5);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_DOUBLE_EQ(rb.window_sum(), 0.0);
  // An unsigned ring sums every slot, so clear() must zero the old samples.
  RingBuffer<std::uint32_t, 4> counts;
  for (std::uint32_t v = 1; v <= 6; ++v) counts.push(v);
  counts.clear();
  counts.push(7);
  EXPECT_EQ(counts.window_sum(), 7u);
}

/// window_sum adds in two straight runs instead of a modulo per sample (an
/// unsigned ring in one pass over every slot); it must equal the sum of
/// at(0), at(1), ... in that order, bit for bit (a floating-point sum
/// depends on its order), at every reachable head and size: sizes below N
/// while filling, then every head once full.
template <typename T, std::size_t N, typename Value>
void expect_window_sum_is_newest_first_sum(Value value) {
  RingBuffer<T, N> rb;
  for (std::size_t pushes = 0; pushes <= 3 * N; ++pushes) {
    T want{};
    for (std::size_t i = 0; i < rb.size(); ++i) want += rb.at(i);
    const T got = rb.window_sum();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(got)),
              std::bit_cast<std::uint64_t>(static_cast<double>(want)))
        << "after " << pushes << " pushes";
    rb.push(value(pushes));
  }
}

TEST(RingBuffer, WindowSumIsTheNewestFirstSum) {
  // Magnitudes far apart, so any other addition order rounds differently.
  const auto mixed = [](std::size_t k) {
    const double big = (k % 3 == 0) ? 1e16 : 1.0;
    return (k % 2 == 0 ? big : -big) + 0.1 * static_cast<double>(k);
  };
  expect_window_sum_is_newest_first_sum<double, 6>(mixed);
  expect_window_sum_is_newest_first_sum<double, 1>(mixed);
  expect_window_sum_is_newest_first_sum<double, 5>(mixed);
  // Unsigned sums wrap; the walk must still visit each sample once.
  const auto near_max = [](std::size_t k) {
    return static_cast<std::uint32_t>(0xfffffff0u + 7u * k);
  };
  expect_window_sum_is_newest_first_sum<std::uint32_t, 6>(near_max);
  expect_window_sum_is_newest_first_sum<std::uint32_t, 1>(near_max);
  expect_window_sum_is_newest_first_sum<std::uint32_t, 7>(near_max);
}

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
