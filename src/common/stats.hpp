// Small descriptive-statistics accumulator used by metrics and benchmarks.
#pragma once

#include <cstddef>
#include <vector>

namespace harp {

/// Collects scalar samples and reports summary statistics. Percentiles are
/// computed on demand by linear interpolation between closest ranks.
class Stats {
 public:
  void add(double sample);
  void merge(const Stats& other);
  void clear();

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  /// Population standard deviation; 0 for fewer than two samples.
  double stddev() const;
  /// Percentile, p in [0, 100]: linear interpolation at rank
  /// p/100 * (n - 1) of the sorted samples (p90 of 1..100 is 90.1).
  /// Requires at least one sample.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Samples are kept (not streamed) because experiment runs are small
  // (thousands of packets) and percentiles need the full distribution.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void sort_if_needed() const;
};

}  // namespace harp
