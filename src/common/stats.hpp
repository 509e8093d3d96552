// Streaming statistics used throughout the simulator and benches.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace webcache {

/// Single-pass accumulator: count / sum / mean / min / max without storing
/// samples. The mean is Welford's running update, numerically stable for the
/// billions of latency samples a full sweep produces; the exported means are
/// its exact bits, so add() and merge() must keep that update as it is.
class RunningStat {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Pools another accumulator into this one (Chan et al. parallel update),
  /// so per-shard stats can be merged exactly.
  void merge(const RunningStat& other);

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [lo, hi); samples outside are clamped into the
/// end buckets. Used for latency and hop-count distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::size_t buckets() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

  /// Pools another histogram into this one (bucket-wise count sum), so
  /// per-shard distributions merge exactly. Both histograms must have been
  /// constructed with identical bounds and bucket counts.
  void merge(const Histogram& other);

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace webcache
