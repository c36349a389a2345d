// Streaming statistics and percentiles for experiment reporting.

#ifndef OBJALLOC_UTIL_STATS_H_
#define OBJALLOC_UTIL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace objalloc::util {

// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const;
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

  // Merges another accumulator into this one (parallel-friendly).
  void Merge(const RunningStats& other);

  std::string ToString() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Collects samples and answers percentile queries; O(n log n) on demand.
class PercentileTracker {
 public:
  void Add(double x);
  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  // q in [0, 1]; nearest-rank percentile. Requires at least one sample.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_STATS_H_
