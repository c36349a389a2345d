#include "objalloc/util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "objalloc/util/logging.h"

namespace objalloc::util {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  OBJALLOC_CHECK_GT(count_, 0);
  return min_;
}

double RunningStats::max() const {
  OBJALLOC_CHECK_GT(count_, 0);
  return max_;
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  int64_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double new_mean =
      mean_ + delta * static_cast<double>(other.count_) / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(n);
  mean_ = new_mean;
  count_ = n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::string RunningStats::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean();
  if (count_ > 0) os << " min=" << min_ << " max=" << max_;
  os << " sd=" << stddev();
  return os.str();
}

void PercentileTracker::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double PercentileTracker::Percentile(double q) const {
  OBJALLOC_CHECK(!samples_.empty());
  OBJALLOC_CHECK_GE(q, 0.0);
  OBJALLOC_CHECK_LE(q, 1.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  if (rank > 0) --rank;
  return samples_[std::min(rank, samples_.size() - 1)];
}

}  // namespace objalloc::util
