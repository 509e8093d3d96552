#include "common/dense_map.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/sha1.hpp"
#include "common/types.hpp"
#include "common/uint128.hpp"
#include "p2p/p2p_client_cache.hpp"

namespace webcache {
namespace {

// --- DenseMap -----------------------------------------------------------------

TEST(DenseMap, InsertFindErase) {
  DenseMap<double> m(10);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(3), nullptr);

  m.set(3, 1.5);
  m.set(7, 2.5);
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_DOUBLE_EQ(*m.find(3), 1.5);
  EXPECT_TRUE(m.contains(7));
  EXPECT_FALSE(m.contains(4));

  EXPECT_TRUE(m.erase(3));
  EXPECT_FALSE(m.erase(3));  // already gone
  EXPECT_FALSE(m.contains(3));
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_EQ(m.size(), 1u);

  // A re-inserted key holds its new value; the erased one never leaks.
  m.set(3, 0.0);  // zero is a value, not absence
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_DOUBLE_EQ(*m.find(3), 0.0);
  EXPECT_EQ(m.size(), 2u);
}

TEST(DenseMap, SetOverwritesWithoutGrowingTheCount) {
  DenseMap<std::uint32_t> m(4);
  m.set(2, 0);
  EXPECT_EQ(*m.find(2), 0u);
  m.set(2, 42);
  EXPECT_EQ(*m.find(2), 42u);  // the second set overwrites
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseMap, IterationIsAscendingKeyOrder) {
  DenseMap<std::uint32_t> m(100);
  m.set(42, 3);
  m.set(7, 1);
  m.set(99, 4);
  m.set(13, 2);  // insertion order differs from key order
  m.set(50, 9);
  m.erase(50);  // an erased key is not visited
  std::vector<std::uint32_t> keys;
  m.for_each([&](std::uint32_t k, std::uint32_t v) {
    keys.push_back(k);
    EXPECT_EQ(v, keys.size());
  });
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{7, 13, 42, 99}));
}

TEST(DenseMap, GrowsOnDemandBeyondReservedUniverse) {
  DenseMap<std::uint32_t> m(4);
  EXPECT_EQ(m.universe(), 4u);
  EXPECT_FALSE(m.contains(100));  // past the reservation: absent, not an error
  EXPECT_EQ(m.find(100), nullptr);
  EXPECT_FALSE(m.erase(100));
  EXPECT_EQ(m.universe(), 4u);  // reads never grow the map
  m.set(100, 7);  // a key past the reservation grows the slot array
  EXPECT_GE(m.universe(), 101u);
  EXPECT_TRUE(m.contains(100));
  EXPECT_EQ(*m.find(100), 7u);
  for (std::uint32_t k = 4; k < 100; ++k) {
    EXPECT_FALSE(m.contains(k)) << k;  // the grown range holds the marker
  }
  EXPECT_EQ(m.size(), 1u);
}

// The slot is the bare value for every T the simulator stores: a uint32
// index, a one-byte level and a double cost.
template <typename T>
class DenseMapSlot : public ::testing::Test {};
using SlotTypes = ::testing::Types<std::uint32_t, std::uint8_t, double>;
TYPED_TEST_SUITE(DenseMapSlot, SlotTypes);

TYPED_TEST(DenseMapSlot, ReservedKeysReadAbsent) {
  DenseMap<TypeParam> m(1000);
  EXPECT_EQ(m.universe(), 1000u);
  EXPECT_TRUE(m.empty());
  for (std::uint32_t k = 0; k < 1000; ++k) {
    ASSERT_FALSE(m.contains(k)) << k;
    ASSERT_EQ(m.find(k), nullptr) << k;
  }
  std::size_t visited = 0;
  m.for_each([&](std::uint32_t, TypeParam) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TYPED_TEST(DenseMapSlot, SetOfTheMarkerThrows) {
  DenseMap<TypeParam> m(8);
  m.set(3, TypeParam{1});
  EXPECT_THROW(m.set(3, DenseMap<TypeParam>::kAbsent), std::logic_error);
  EXPECT_THROW(m.set(5, DenseMap<TypeParam>::kAbsent), std::logic_error);
  EXPECT_THROW(m.set(500, DenseMap<TypeParam>::kAbsent), std::logic_error);
  // The refused writes changed nothing, not even the slot array's size.
  ASSERT_TRUE(m.contains(3));
  EXPECT_EQ(*m.find(3), TypeParam{1});
  EXPECT_FALSE(m.contains(5));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.universe(), 8u);
}

TEST(DenseMap, MemoryIsOneBareValuePerSlot) {
  // A flagged slot took 8, 2 and 16 bytes; the marker form takes 4, 1 and 8.
  const DenseMap<std::uint32_t> index(1000);
  const DenseMap<std::uint8_t> level(1000);
  const DenseMap<double> cost(1000);
  EXPECT_EQ(index.memory_bytes(), index.universe() * 4);
  EXPECT_EQ(level.memory_bytes(), level.universe() * 1);
  EXPECT_EQ(cost.memory_bytes(), cost.universe() * 8);
}

TEST(DenseMap, MarkersAreTheMaximumAndNaN) {
  EXPECT_EQ(DenseMap<std::uint32_t>::kAbsent, 0xFFFFFFFFu);
  EXPECT_EQ(DenseMap<std::uint8_t>::kAbsent, 0xFFu);
  EXPECT_TRUE(std::isnan(DenseMap<double>::kAbsent));
  // The largest storable values sit just below the markers.
  DenseMap<std::uint8_t> m(2);
  m.set(0, 0xFE);
  EXPECT_EQ(*m.find(0), 0xFEu);
  DenseMap<double> d(2);
  d.set(1, std::numeric_limits<double>::infinity());  // only NaN is refused
  EXPECT_TRUE(d.contains(1));
}

// --- FlatMap ------------------------------------------------------------------

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), nullptr);

  m[1] = "one";
  m[2] = "two";
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), "one");
  EXPECT_FALSE(m.contains(3));

  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, SurvivesGrowthAndChurn) {
  FlatMap<std::uint32_t> m;
  // Force several growth doublings, then a deletion-heavy phase: backward
  // shifting must keep every surviving key reachable with no tombstones.
  for (std::uint32_t k = 0; k < 500; ++k) m[k] = k * 2;
  for (std::uint32_t k = 0; k < 500; k += 2) EXPECT_TRUE(m.erase(k));
  EXPECT_EQ(m.size(), 250u);
  for (std::uint32_t k = 0; k < 500; ++k) {
    if (k % 2 == 0) {
      EXPECT_FALSE(m.contains(k)) << k;
    } else {
      ASSERT_NE(m.find(k), nullptr) << k;
      EXPECT_EQ(*m.find(k), k * 2) << k;
    }
  }
  // Re-insert into the holes.
  for (std::uint32_t k = 0; k < 500; k += 2) m[k] = k + 1;
  EXPECT_EQ(m.size(), 500u);
  for (std::uint32_t k = 0; k < 500; k += 2) EXPECT_EQ(*m.find(k), k + 1);
}

TEST(FlatMap, IterationIsDeterministicForAGivenHistory) {
  const auto build = [] {
    FlatMap<int> m;
    for (std::uint32_t k = 0; k < 64; ++k) m[k] = static_cast<int>(k);
    for (std::uint32_t k = 0; k < 64; k += 3) m.erase(k);
    return m;
  };
  const auto a = build();
  const auto b = build();
  std::vector<std::pair<std::uint32_t, int>> va, vb;
  a.for_each([&](std::uint32_t k, int v) { va.emplace_back(k, v); });
  b.for_each([&](std::uint32_t k, int v) { vb.emplace_back(k, v); });
  EXPECT_EQ(va, vb);
  EXPECT_EQ(va.size(), a.size());
}

TEST(FlatMap, ClearReleasesEverything) {
  FlatMap<int> m;
  for (std::uint32_t k = 0; k < 40; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  m[5] = 9;  // usable again from scratch
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, MemoryFollowsTheSlotArray) {
  FlatMap<std::uint32_t> m;
  EXPECT_EQ(m.memory_bytes(), 0u);
  m.reserve(14);  // 14 entries fit 16 slots under the 7/8 ceiling
  EXPECT_EQ(m.memory_bytes(), 16 * 2 * sizeof(std::uint32_t));
  m[4'000'000'000U] = 1;  // a far key costs no more than a near one
  EXPECT_EQ(m.memory_bytes(), 16 * 2 * sizeof(std::uint32_t));
  m.reserve(15);  // the 15th needs 32
  EXPECT_EQ(m.memory_bytes(), 32 * 2 * sizeof(std::uint32_t));
  EXPECT_EQ(*m.find(4'000'000'000U), 1u);
}

// --- growth under cluster churn -------------------------------------------------
//
// The P2P location index is reserved for twice the cluster's capacity, and the
// per-client diversion maps start empty; fresh clients joining mid-run (churn)
// must grow these structures on demand without disturbing resident state.

TEST(DenseContainersUnderChurn, FreshJoinsGrowTheClusterState) {
  p2p::P2PConfig pc;
  pc.clients = 8;
  pc.per_client_capacity = 2;
  auto ids = std::make_shared<std::vector<Uint128>>();
  for (std::uint32_t o = 0; o < 64; ++o) {
    ids->push_back(Sha1::hash128(object_url(o)));
  }
  p2p::P2PClientCache cluster(pc, std::move(ids));

  for (ObjectNum o = 0; o < 16; ++o) {
    (void)cluster.store(o, 1.0, o % 8);
  }
  const auto before = cluster.resident_objects();
  EXPECT_FALSE(before.empty());

  // Fresh joins extend the dense client-index space past the initial size.
  const ClientNum j1 = cluster.add_client();
  const ClientNum j2 = cluster.add_client();
  EXPECT_EQ(j1, 8u);
  EXPECT_EQ(j2, 9u);
  EXPECT_EQ(cluster.cluster_size(), 10u);

  // Resident objects survived the joins, and the cluster stays consistent.
  EXPECT_EQ(cluster.resident_objects(), before);
  EXPECT_TRUE(cluster.audit_violations().empty());

  // New clients participate fully: keep storing across the grown cluster.
  for (ObjectNum o = 16; o < 40; ++o) {
    (void)cluster.store(o, 1.0, o % 10);
  }
  EXPECT_TRUE(cluster.audit_violations().empty());
}

}  // namespace
}  // namespace webcache
