#include "sim/tiered_cache.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>

#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "common/rng.hpp"

namespace webcache::sim {
namespace {

TieredCache make_lru(std::size_t c1, std::size_t c2) {
  return TieredCache(std::make_unique<cache::LruCache>(c1),
                     std::make_unique<cache::LruCache>(c2));
}

TEST(TieredCache, AdmitGoesToTier1) {
  auto t = make_lru(2, 2);
  EXPECT_TRUE(t.admit(1, 20.0));
  EXPECT_EQ(t.locate(1), TieredCache::Where::kTier1);
}

TEST(TieredCache, Tier1EvictionDestagesToTier2) {
  auto t = make_lru(1, 2);
  t.admit(1, 20.0);
  t.admit(2, 20.0);  // 1 destaged down
  EXPECT_EQ(t.locate(2), TieredCache::Where::kTier1);
  EXPECT_EQ(t.locate(1), TieredCache::Where::kTier2);
}

TEST(TieredCache, Tier2OverflowLeavesEntirely) {
  auto t = make_lru(1, 1);
  t.admit(1, 20.0);
  t.admit(2, 20.0);  // 1 -> tier2
  t.admit(3, 20.0);  // 2 -> tier2, 1 leaves
  EXPECT_EQ(t.locate(3), TieredCache::Where::kTier1);
  EXPECT_EQ(t.locate(2), TieredCache::Where::kTier2);
  EXPECT_EQ(t.locate(1), TieredCache::Where::kMiss);
}

TEST(TieredCache, Tier2HitPromotesAndConservesOccupancy) {
  auto t = make_lru(1, 2);
  t.admit(1, 20.0);
  t.admit(2, 20.0);  // tier1: {2}, tier2: {1}
  const auto where = t.access(1, 20.0);
  EXPECT_EQ(where, TieredCache::Where::kTier2);
  EXPECT_EQ(t.locate(1), TieredCache::Where::kTier1);
  EXPECT_EQ(t.locate(2), TieredCache::Where::kTier2);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TieredCache, RefreshDoesNotPromote) {
  auto t = make_lru(1, 2);
  t.admit(1, 20.0);
  t.admit(2, 20.0);
  const auto where = t.refresh(1, 20.0);
  EXPECT_EQ(where, TieredCache::Where::kTier2);
  EXPECT_EQ(t.locate(1), TieredCache::Where::kTier2);  // stayed put
}

TEST(TieredCache, ZeroCapacityTier2DropsDestages) {
  auto t = make_lru(1, 0);
  t.admit(1, 20.0);
  t.admit(2, 20.0);
  EXPECT_EQ(t.locate(1), TieredCache::Where::kMiss);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TieredCache, GreedyDualCreditsSurviveDestaging) {
  // Expensive objects keep their credit when destaged: tier 2 must evict a
  // cheap object before an expensive one.
  TieredCache t(std::make_unique<cache::GreedyDualCache>(1),
                std::make_unique<cache::GreedyDualCache>(2));
  t.admit(1, 20.0);  // expensive
  t.admit(2, 1.4);   // cheap; 1 destaged with credit 20
  t.admit(3, 1.4);   // 2 destaged with credit 1.4; tier2 = {1, 2}
  t.admit(4, 1.4);   // 3 destaged; tier2 must evict 2 (credit 1.4), keep 1
  EXPECT_EQ(t.locate(1), TieredCache::Where::kTier2);
  EXPECT_EQ(t.locate(2), TieredCache::Where::kMiss);
}

TEST(TieredCache, SizeNeverExceedsCapacityUnderChurn) {
  TieredCache t(std::make_unique<cache::LfuCache>(5),
                std::make_unique<cache::LfuCache>(10));
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const auto o = static_cast<ObjectNum>(rng.next_below(60));
    if (t.contains(o)) {
      t.access(o, 20.0);
    } else {
      t.admit(o, 20.0);
    }
    ASSERT_LE(t.size(), t.capacity());
    ASSERT_LE(t.tier1().size(), t.tier1().capacity());
    ASSERT_LE(t.tier2().size(), t.tier2().capacity());
  }
  EXPECT_EQ(t.size(), t.capacity());  // saturated universe keeps it full
}

TEST(TieredCache, NoObjectInBothTiers) {
  TieredCache t(std::make_unique<cache::LfuCache>(4),
                std::make_unique<cache::LfuCache>(6));
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const auto o = static_cast<ObjectNum>(rng.next_below(40));
    if (t.contains(o)) {
      t.access(o, 20.0);
    } else {
      t.admit(o, 20.0);
    }
  }
  for (const auto o : t.tier1().contents()) {
    ASSERT_FALSE(t.tier2().contains(o)) << o;
  }
}

TEST(TieredCache, NanCostThrowsAndLeavesBothTiersUnchanged) {
  // The cost index marks an uncached object with NaN, so a NaN cost is
  // refused before either tier moves: each call below would otherwise
  // reorder a tier's recency list or admit a new object.
  auto t = make_lru(2, 2);
  for (ObjectNum o = 1; o <= 4; ++o) t.admit(o, 20.0);  // tier1 {3, 4}, tier2 {1, 2}
  const auto tiers = [&t] { return std::pair{t.tier1().contents(), t.tier2().contents()}; };
  const auto before = tiers();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.admit(5, nan), std::invalid_argument);
  EXPECT_THROW(t.access(3, nan), std::invalid_argument);  // tier-1 hit
  EXPECT_THROW(t.access(1, nan), std::invalid_argument);  // tier-2 hit: would promote
  EXPECT_THROW(t.refresh(1, nan), std::invalid_argument);
  EXPECT_EQ(tiers(), before);
  EXPECT_EQ(t.locate(5), TieredCache::Where::kMiss);
  EXPECT_EQ(t.size(), 4u);
}

TEST(TieredCache, RequiresBothTiers) {
  EXPECT_THROW(TieredCache(nullptr, std::make_unique<cache::LruCache>(1)),
               std::invalid_argument);
  EXPECT_THROW(TieredCache(std::make_unique<cache::LruCache>(1), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace webcache::sim
