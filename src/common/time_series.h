// A named, uniformly sampled time series plus a container of related series.
//
// The metrics pipeline appends one sample per epoch (per-MDS IOPS, IF values,
// migrated inode counts, ...); report printers and the benches consume these
// to regenerate each figure of the paper as aligned text / CSV.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lunule {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void push(double v) { values_.push_back(v); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double at(std::size_t i) const { return values_.at(i); }
  [[nodiscard]] double back() const { return values_.back(); }

  /// Average over the whole series (0 if empty).
  [[nodiscard]] double average() const;
  /// Maximum over the whole series (0 if empty).
  [[nodiscard]] double maximum() const;
  /// Average over the trailing `n` samples.
  [[nodiscard]] double tail_average(std::size_t n) const;

  /// Downsamples into `buckets` bucket-averages (for compact printing).
  [[nodiscard]] std::vector<double> resampled(std::size_t buckets) const;

 private:
  std::string name_;
  std::vector<double> values_;
};

/// A bundle of equally sampled series sharing one time axis, e.g. one series
/// per MDS, or one series per balancer.
class SeriesBundle {
 public:
  SeriesBundle() = default;
  explicit SeriesBundle(double seconds_per_sample)
      : seconds_per_sample_(seconds_per_sample) {}

  /// Appends an empty series.  The returned reference is valid only until
  /// the next add (the series are stored by value and may reallocate);
  /// reach earlier series through at().
  TimeSeries& add(std::string name);
  [[nodiscard]] const TimeSeries& at(std::size_t i) const;
  [[nodiscard]] TimeSeries& at(std::size_t i);
  [[nodiscard]] const TimeSeries* find(std::string_view name) const;
  [[nodiscard]] std::size_t count() const { return series_.size(); }
  [[nodiscard]] double seconds_per_sample() const {
    return seconds_per_sample_;
  }
  [[nodiscard]] std::size_t length() const;

 private:
  double seconds_per_sample_ = 1.0;
  std::vector<TimeSeries> series_;
};

}  // namespace lunule
