// Fenwick (binary indexed) tree of non-negative integer weights: O(log n)
// weight updates, prefix sums and sample-by-cumulative-weight. ProWGen
// keeps the remaining reference counts of blocks of objects in two of them
// (LRU stack and pool) and draws every request through find(); the stack
// distance analysis counts most-recent references with one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace webcache {

class FenwickTree {
 public:
  explicit FenwickTree(std::size_t n) : tree_(n + 1, 0) {}

  [[nodiscard]] std::size_t size() const { return tree_.size() - 1; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Adds `delta` to element i's weight, which must stay non-negative.
  /// Unsigned sums wrap, so a negative delta lands exactly.
  void add(std::size_t i, std::int64_t delta) {
    const auto d = static_cast<std::uint64_t>(delta);
    total_ += d;
    for (std::size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) tree_[j] += d;
  }

  /// Sum of the weights of elements [0, i).
  [[nodiscard]] std::uint64_t prefix_sum(std::size_t i) const {
    std::uint64_t s = 0;
    for (std::size_t j = i; j > 0; j -= j & (~j + 1)) s += tree_[j];
    return s;
  }

  /// Where a draw lands: an element and the draw's offset into its weight.
  struct Position {
    std::size_t index;
    std::uint64_t offset;
  };

  /// The element a draw `target` in [0, total()) lands on — the smallest i
  /// with prefix_sum(i + 1) > target, which never has zero weight — and
  /// target - prefix_sum(i).
  [[nodiscard]] Position find(std::uint64_t target) const {
    std::size_t idx = 0;
    for (std::size_t bit = std::bit_floor(size()); bit != 0; bit >>= 1) {
      const std::size_t next = idx + bit;
      if (next < tree_.size() && tree_[next] <= target) {
        target -= tree_[next];
        idx = next;
      }
    }
    return {idx, target};
  }

 private:
  std::vector<std::uint64_t> tree_;
  std::uint64_t total_ = 0;
};

}  // namespace webcache
