#include "bloom/counting_bloom.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace webcache::bloom {

namespace {
constexpr double kLn2 = 0.6931471805599453;

/// Checked before any sizing: outside (0, 1) the formula yields a negative,
/// infinite or NaN count.
std::size_t optimal_counters(std::size_t n, double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("CountingBloomFilter: target_fpr must be in (0, 1)");
  }
  if (n == 0) n = 1;
  const double m = -static_cast<double>(n) * std::log(p) / (kLn2 * kLn2);
  return std::max<std::size_t>(64, static_cast<std::size_t>(std::ceil(m)));
}

unsigned optimal_hashes(std::size_t m, std::size_t n) {
  if (n == 0) n = 1;
  const double k = static_cast<double>(m) / static_cast<double>(n) * kLn2;
  return std::clamp<unsigned>(static_cast<unsigned>(std::lround(k)), 1, 16);
}
}  // namespace

CountingBloomFilter::CountingBloomFilter(std::size_t expected_items, double target_fpr)
    : CountingBloomFilter(
          optimal_counters(expected_items, target_fpr),
          optimal_hashes(optimal_counters(expected_items, target_fpr), expected_items)) {}

CountingBloomFilter::CountingBloomFilter(std::size_t counters, unsigned hashes)
    : counters_(std::max<std::size_t>(counters, 1)),
      hashes_(std::max<unsigned>(hashes, 1)),
      cells_(counters_, 0) {}

std::size_t CountingBloomFilter::probe(const Uint128& key, unsigned i) const {
  // h2 is forced odd so the probe sequence cycles through the full table for
  // power-of-two sizes too.
  const std::uint64_t h1 = key.hi;
  const std::uint64_t h2 = key.lo | 1;
  return static_cast<std::size_t>((h1 + static_cast<std::uint64_t>(i) * h2) %
                                  static_cast<std::uint64_t>(counters_));
}

void CountingBloomFilter::insert(const Uint128& key) {
  for (unsigned i = 0; i < hashes_; ++i) {
    auto& cell = cells_[probe(key, i)];
    if (cell == kMaxCount) {
      ++saturations_;
    } else {
      ++cell;
    }
  }
}

void CountingBloomFilter::erase(const Uint128& key) {
  for (unsigned i = 0; i < hashes_; ++i) {
    auto& cell = cells_[probe(key, i)];
    // A saturated counter can no longer be decremented safely; leaving it at
    // the maximum turns potential false negatives into false positives.
    if (cell > 0 && cell < kMaxCount) {
      --cell;
    }
  }
}

bool CountingBloomFilter::may_contain(const Uint128& key) const {
  for (unsigned i = 0; i < hashes_; ++i) {
    if (cells_[probe(key, i)] == 0) return false;
  }
  return true;
}

std::uint8_t CountingBloomFilter::estimate(const Uint128& key) const {
  std::uint8_t min = kMaxCount;
  for (unsigned i = 0; i < hashes_; ++i) {
    min = std::min(min, cells_[probe(key, i)]);
  }
  return min;
}

void CountingBloomFilter::halve() {
  for (auto& cell : cells_) cell >>= 1;
}

void CountingBloomFilter::clear() {
  std::fill(cells_.begin(), cells_.end(), 0);
  saturations_ = 0;
}

double CountingBloomFilter::estimated_fpr() const {
  std::size_t nonzero = 0;
  for (const auto c : cells_) nonzero += (c != 0);
  const double fill = static_cast<double>(nonzero) / static_cast<double>(counters_);
  return std::pow(fill, static_cast<double>(hashes_));
}

}  // namespace webcache::bloom
