#include "common/fenwick.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace webcache {
namespace {

FenwickTree tree_of(const std::vector<std::int64_t>& weights) {
  FenwickTree t(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) t.add(i, weights[i]);
  return t;
}

TEST(Fenwick, PrefixSumsMatchNaive) {
  const std::vector<std::int64_t> w = {1, 0, 3, 2, 0, 5, 1, 0, 0, 4};
  const auto t = tree_of(w);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= w.size(); ++i) {
    EXPECT_EQ(t.prefix_sum(i), cum);
    if (i < w.size()) cum += static_cast<std::uint64_t>(w[i]);
  }
  EXPECT_EQ(t.total(), 16u);
  EXPECT_EQ(t.size(), 10u);
}

TEST(Fenwick, AddAccumulatesSignedDeltasExactly) {
  FenwickTree t(4);
  t.add(2, 5);
  t.add(2, -2);
  EXPECT_EQ(t.prefix_sum(3) - t.prefix_sum(2), 3u);
  t.add(2, 2);
  EXPECT_EQ(t.prefix_sum(3) - t.prefix_sum(2), 5u);
  t.add(2, -5);
  EXPECT_EQ(t.prefix_sum(4), 0u);
  EXPECT_EQ(t.total(), 0u);
  // Counts far above 2^53, where a double sum would round, stay exact.
  t.add(1, std::int64_t{1} << 60);
  t.add(3, 1);
  t.add(1, -1);
  EXPECT_EQ(t.total(), std::uint64_t{1} << 60);
  EXPECT_EQ(t.find((std::uint64_t{1} << 60) - 1).index, 3u);
}

TEST(Fenwick, FindReturnsBucketContainingTarget) {
  const auto t = tree_of({2, 0, 3, 0, 1});  // [0, 2), [2, 5), [5, 6)
  const std::pair<std::uint64_t, FenwickTree::Position> expected[] = {
      {0, {0, 0}}, {1, {0, 1}}, {2, {2, 0}}, {4, {2, 2}}, {5, {4, 0}},
  };
  for (const auto& [target, at] : expected) {
    const auto got = t.find(target);
    EXPECT_EQ(got.index, at.index) << "target " << target;
    EXPECT_EQ(got.offset, at.offset) << "target " << target;
  }
}

TEST(Fenwick, FindMatchesALinearScanAtEveryTarget) {
  // Sizes around the powers of two the descent steps by.
  Rng rng(5);
  for (std::size_t n = 1; n <= 70; ++n) {
    std::vector<std::int64_t> w(n);
    for (auto& x : w) x = static_cast<std::int64_t>(rng.next_below(3) == 0 ? 0 : rng.next_below(5));
    const auto t = tree_of(w);
    std::size_t i = 0;
    std::int64_t before = 0;  // mass of the elements ahead of i
    for (std::uint64_t target = 0; target < t.total(); ++target) {
      while (static_cast<std::uint64_t>(before + w[i]) <= target) before += w[i++];
      const auto got = t.find(target);
      ASSERT_EQ(got.index, i) << "n " << n << " target " << target;
      ASSERT_EQ(got.offset, target - static_cast<std::uint64_t>(before))
          << "n " << n << " target " << target;
    }
  }
}

TEST(Fenwick, FindNeverReturnsZeroWeightElement) {
  FenwickTree t(100);
  Rng rng(3);
  std::vector<std::int64_t> w(100, 0);
  for (std::size_t i = 0; i < 100; i += 2) {
    w[i] = 1 + static_cast<std::int64_t>(i % 7);
    t.add(i, w[i]);
  }
  for (int draw = 0; draw < 10'000; ++draw) {
    const auto idx = t.find(rng.next_below(t.total())).index;
    ASSERT_GT(w[idx], 0);
    ASSERT_EQ(idx % 2, 0u);
  }
}

TEST(Fenwick, SamplingFollowsWeights) {
  const auto t = tree_of({1, 2, 7});
  Rng rng(17);
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++counts[t.find(rng.next_below(t.total())).index];
  EXPECT_NEAR(counts[0], kDraws * 0.1, kDraws * 0.01);
  EXPECT_NEAR(counts[1], kDraws * 0.2, kDraws * 0.015);
  EXPECT_NEAR(counts[2], kDraws * 0.7, kDraws * 0.02);
}

TEST(Fenwick, DynamicUpdatesDuringSampling) {
  // The ProWGen pattern: weights decay to zero as references are consumed.
  FenwickTree t(50);
  std::vector<int> remaining(50, 10);
  for (std::size_t i = 0; i < 50; ++i) t.add(i, 10);
  Rng rng(23);
  int total_draws = 0;
  while (t.total() > 0) {
    const auto idx = t.find(rng.next_below(t.total())).index;
    ASSERT_GT(remaining[idx], 0);
    --remaining[idx];
    t.add(idx, -1);
    ++total_draws;
  }
  EXPECT_EQ(total_draws, 500);
  for (const int r : remaining) EXPECT_EQ(r, 0);
}

}  // namespace
}  // namespace webcache
