// Report printing helpers shared by the bench binaries.
//
// Each bench regenerates one paper table/figure.  Time-series figures are
// printed as bucket-resampled rows (one row per time bucket, one column per
// series); summary tables print one row per experiment cell.  All printers
// honour a --csv mode for plotting.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "sim/metrics.h"

namespace lunule::sim {

struct ReportOptions {
  bool csv = false;
  std::size_t buckets = 12;  // time buckets for series tables
};

/// One table column: a value per epoch under a header name.
struct SeriesColumn {
  std::string_view name;
  std::span<const double> values;
};

/// Prints per-epoch columns side by side, one row per time bucket.  Each
/// column is resampled over its own length, so curves of different
/// lengths (faster/slower runs) align by progress, like the paper's
/// time-axis plots that simply end earlier for faster systems; the time
/// axis spans the longest column.  Values print with `digits` decimals.
void print_series(std::ostream& os, const std::string& title,
                  const std::vector<SeriesColumn>& columns,
                  double epoch_seconds, int digits,
                  const ReportOptions& opts);

/// Per-MDS IOPS of one run: a column per rank, named MDS-1 ... MDS-n.
void print_per_mds_iops(std::ostream& os, const std::string& title,
                        const MetricsCollector& metrics,
                        const ReportOptions& opts);

/// Emits a PASS/FAIL line for one qualitative shape check; the bench's exit
/// status aggregates them.
class ShapeChecker {
 public:
  void expect(bool ok, const std::string& what);
  void print(std::ostream& os) const;
  [[nodiscard]] bool all_ok() const { return failures_ == 0; }
  [[nodiscard]] int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  std::vector<std::pair<bool, std::string>> checks_;
  int failures_ = 0;
};

}  // namespace lunule::sim
