#include "common/stats.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace webcache {

void RunningStat::merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (buckets == 0 || !(lo < hi)) {
    throw std::invalid_argument("Histogram: need lo < hi and buckets >= 1");
  }
}

void Histogram::add(double x) {
  const double f = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(f * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ || counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("Histogram::merge: incompatible bounds or bucket count");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

}  // namespace webcache
