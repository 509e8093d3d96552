#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace webcache {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesPooledComputation) {
  RunningStat all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i;
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStat a_copy = a;
  a.merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs: becomes rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStat, NumericallyStableForLargeOffsets) {
  RunningStat s;
  for (int i = 0; i < 10'000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-3.0);   // clamps into bucket 0
  h.add(100.0);  // clamps into last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(5), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
}

TEST(Histogram, RejectsBadGeometry) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace webcache
