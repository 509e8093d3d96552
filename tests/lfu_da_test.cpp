// Tests for LFU-DA (dynamic aging) and the clairvoyant cost-benefit
// consume() extension — the two policy refinements that reconcile the
// paper's scheme orderings with its temporal-locality findings.
#include <gtest/gtest.h>

#include "cache/cost_benefit.hpp"
#include "cache/lfu.hpp"

namespace webcache::cache {
namespace {

// --- LFU-DA -----------------------------------------------------------------

TEST(LfuDa, BehavesLikeLfuBeforeFirstEviction) {
  LfuCache da(3);
  da.insert(1, 0);
  da.insert(2, 0);
  da.insert(3, 0);
  da.access(1, 0);
  da.access(1, 0);
  da.access(2, 0);
  EXPECT_EQ(da.peek_victim(), std::optional<ObjectNum>(3));
  EXPECT_EQ(da.aging_floor(), 0u);
}

TEST(LfuDa, AgingFloorRisesWithEvictions) {
  LfuCache da(2);
  da.insert(1, 0);
  for (int i = 0; i < 5; ++i) da.access(1, 0);  // key 6
  da.insert(2, 0);                              // key 1
  da.insert(3, 0);                              // evicts 2 (key 1); floor = 1
  EXPECT_EQ(da.aging_floor(), 1u);
  EXPECT_TRUE(da.contains(1));
}

TEST(LfuDa, FormerlyHotObjectsAgeOut) {
  // The defining difference from pure LFU, which would pin it forever: a
  // burst-hot object that goes cold is eventually evicted in favour of the
  // current working set.
  LfuCache da(2);
  da.insert(1, 0);
  for (int i = 0; i < 50; ++i) da.access(1, 0);  // 1 is very hot, then cold
  // A stream of fresh objects, each referenced twice in quick succession.
  bool evicted_hot = false;
  for (ObjectNum o = 100; o < 160; ++o) {
    if (!da.contains(o)) da.insert(o, 0);
    if (da.contains(o)) da.access(o, 0);
    evicted_hot = evicted_hot || !da.contains(1);
  }
  EXPECT_TRUE(evicted_hot);  // aging reclaimed the stale object
}

TEST(LfuDa, ReWarmedObjectOutlivesAgedPopulation) {
  LfuCache da(3);
  da.insert(1, 0);
  da.insert(2, 0);
  da.insert(3, 0);
  // Force evictions to raise the floor.
  for (ObjectNum o = 10; o < 20; ++o) da.insert(o, 0);
  const auto floor = da.aging_floor();
  EXPECT_GT(floor, 0u);
  // A fresh insert keys at floor + 1: re-accessing it immediately re-keys it
  // above the whole aged population.
  da.insert(50, 0);
  da.access(50, 0);
  da.insert(51, 0);
  da.insert(52, 0);
  da.insert(53, 0);  // two of {51,52,53} plus one other must go before 50
  EXPECT_TRUE(da.contains(50));
}

TEST(LfuDa, CapacityInvariantUnderChurn) {
  LfuCache da(16);
  for (ObjectNum o = 0; o < 1000; ++o) {
    if (da.contains(o % 37)) {
      da.access(o % 37, 0);
    } else {
      da.insert(o % 37, 0);
    }
    ASSERT_LE(da.size(), 16u);
  }
}

// --- clairvoyant consume() ----------------------------------------------------

TEST(CostBenefitConsume, DecrementsFutureFrequency) {
  CostBenefitCoordinator coord({10.0}, 2, 20.0, 2.0);
  EXPECT_DOUBLE_EQ(coord.frequency(0), 10.0);
  coord.consume(0);
  EXPECT_DOUBLE_EQ(coord.frequency(0), 9.5);  // one request = 1/P per proxy
  for (int i = 0; i < 100; ++i) coord.consume(0);
  EXPECT_DOUBLE_EQ(coord.frequency(0), 0.0);  // clamps at zero
  coord.consume(99);                           // out of range: no-op
}

TEST(CostBenefitConsume, RepricesCachedCopies) {
  CostBenefitCoordinator coord({10.0, 1.0}, 2, 20.0, 2.0);
  CostBenefitCache a(2, coord);
  a.insert(0, 0);
  const double before = a.value_of(0);
  coord.consume(0);
  const double after = a.value_of(0);
  EXPECT_LT(after, before);
  EXPECT_DOUBLE_EQ(after, coord.copy_value(0, 1));
}

TEST(CostBenefitConsume, ExhaustedObjectsBecomeEvictionVictims) {
  CostBenefitCoordinator coord({5.0, 4.0, 3.0}, 2, 20.0, 2.0);
  CostBenefitCache a(2, coord);
  a.insert(0, 0);
  a.insert(1, 0);
  // Object 0's references run out: its copies decay to value 0.
  for (int i = 0; i < 20; ++i) coord.consume(0);
  const auto r = a.insert(2, 0);
  ASSERT_TRUE(r.inserted);
  EXPECT_EQ(r.evicted, std::optional<ObjectNum>(0));
  EXPECT_TRUE(a.contains(1));
}

TEST(CostBenefitConsume, RepricingKeepsOrderConsistentAcrossMembers) {
  CostBenefitCoordinator coord({8.0, 6.0}, 2, 20.0, 2.0);
  CostBenefitCache a(2, coord), b(2, coord);
  a.insert(0, 0);
  b.insert(0, 0);  // duplicate: both priced as redundant
  a.insert(1, 0);
  for (int i = 0; i < 6; ++i) coord.consume(0);
  // Both copies of 0 repriced from the decayed frequency.
  EXPECT_DOUBLE_EQ(a.value_of(0), b.value_of(0));
  EXPECT_DOUBLE_EQ(a.value_of(0), coord.copy_value(0, 2));
  // Victim ordering respects the decay.
  EXPECT_EQ(a.peek_victim(), std::optional<ObjectNum>(0));
}

}  // namespace
}  // namespace webcache::cache
