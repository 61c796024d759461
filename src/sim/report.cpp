#include "sim/report.h"

#include <algorithm>
#include <ostream>

#include "common/stats.h"

namespace lunule::sim {

void print_series(std::ostream& os, const std::string& title,
                  const std::vector<SeriesColumn>& columns,
                  double epoch_seconds, int digits,
                  const ReportOptions& opts) {
  std::size_t length = 0;
  for (const SeriesColumn& c : columns) {
    length = std::max(length, c.values.size());
  }
  const std::size_t buckets =
      std::min(opts.buckets, std::max<std::size_t>(1, length));

  std::vector<std::string> headers{"t(min)"};
  std::vector<std::vector<double>> resampled;
  resampled.reserve(columns.size());
  for (const SeriesColumn& c : columns) {
    headers.emplace_back(c.name);
    resampled.push_back(resample(c.values, buckets));
  }
  TablePrinter table(std::move(headers));
  const double bucket_seconds = static_cast<double>(length) /
                                static_cast<double>(buckets) * epoch_seconds;
  for (std::size_t b = 0; b < buckets; ++b) {
    std::vector<std::string> row;
    row.push_back(TablePrinter::fmt(
        static_cast<double>(b + 1) * bucket_seconds / 60.0, 1));
    for (const auto& col : resampled) {
      row.push_back(b < col.size() ? TablePrinter::fmt(col[b], digits)
                                   : std::string("-"));
    }
    table.add_row(std::move(row));
  }
  if (opts.csv) {
    table.print_csv(os);
  } else {
    table.print(os, title);
  }
}

void print_per_mds_iops(std::ostream& os, const std::string& title,
                        const MetricsCollector& metrics,
                        const ReportOptions& opts) {
  std::vector<std::string> names;
  std::vector<std::vector<double>> iops;
  for (std::size_t m = 0; m < metrics.ranks(); ++m) {
    names.push_back(mds_name(m));
    iops.push_back(metrics.rank_iops(m));
  }
  std::vector<SeriesColumn> columns;
  for (std::size_t m = 0; m < names.size(); ++m) {
    columns.push_back({names[m], iops[m]});
  }
  print_series(os, title, columns, metrics.epoch_seconds(), /*digits=*/1,
               opts);
}

void ShapeChecker::expect(bool ok, const std::string& what) {
  checks_.emplace_back(ok, what);
  if (!ok) ++failures_;
}

void ShapeChecker::print(std::ostream& os) const {
  os << "[SHAPE-CHECK]\n";
  for (const auto& [ok, what] : checks_) {
    os << "  " << (ok ? "PASS" : "FAIL") << "  " << what << "\n";
  }
}

}  // namespace lunule::sim
