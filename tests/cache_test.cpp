#include "cache/cost_benefit.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace webcache::cache {
namespace {

// --- LRU --------------------------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruCache c(3);
  c.insert(1, 0);
  c.insert(2, 0);
  c.insert(3, 0);
  c.access(1, 0);  // order now 1, 3, 2 (MRU..LRU)
  const auto r = c.insert(4, 0);
  ASSERT_TRUE(r.inserted);
  EXPECT_EQ(r.evicted, std::optional<ObjectNum>(2));
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(Lru, PeekVictimIsLru) {
  LruCache c(2);
  c.insert(10, 0);
  c.insert(20, 0);
  EXPECT_EQ(c.peek_victim(), std::optional<ObjectNum>(10));
  c.access(10, 0);
  EXPECT_EQ(c.peek_victim(), std::optional<ObjectNum>(20));
}

TEST(Lru, EraseRemovesWithoutEviction) {
  LruCache c(2);
  c.insert(1, 0);
  c.insert(2, 0);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.size(), 1u);
  const auto r = c.insert(3, 0);
  EXPECT_FALSE(r.evicted.has_value());
}

TEST(Lru, ZeroCapacityDeclines) {
  LruCache c(0);
  const auto r = c.insert(1, 0);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(c.size(), 0u);
}

TEST(Lru, CapacityNeverExceeded) {
  LruCache c(5);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto o = static_cast<ObjectNum>(rng.next_below(50));
    if (c.contains(o)) {
      c.access(o, 0);
    } else {
      c.insert(o, 0);
    }
    ASSERT_LE(c.size(), 5u);
  }
}

// --- LFU --------------------------------------------------------------------

TEST(Lfu, EvictsLeastFrequent) {
  LfuCache c(3);
  c.insert(1, 0);
  c.insert(2, 0);
  c.insert(3, 0);
  c.access(1, 0);
  c.access(1, 0);
  c.access(2, 0);
  // Frequencies: 1 -> 3, 2 -> 2, 3 -> 1.
  const auto r = c.insert(4, 0);
  EXPECT_EQ(r.evicted, std::optional<ObjectNum>(3));
}

TEST(Lfu, TieBreaksByRecency) {
  LfuCache c(2);
  c.insert(1, 0);
  c.insert(2, 0);
  // Both frequency 1; object 1 is older.
  const auto r = c.insert(3, 0);
  EXPECT_EQ(r.evicted, std::optional<ObjectNum>(1));
}

TEST(Lfu, ContentsAndVictimConsistent) {
  LfuCache c(4);
  for (ObjectNum o = 0; o < 4; ++o) c.insert(o, 0);
  c.access(0, 0);
  c.access(1, 0);
  c.access(2, 0);
  EXPECT_EQ(c.peek_victim(), std::optional<ObjectNum>(3));
  auto contents = c.contents();
  std::sort(contents.begin(), contents.end());
  EXPECT_EQ(contents, (std::vector<ObjectNum>{0, 1, 2, 3}));
}

// --- Greedy-dual ---------------------------------------------------------------

/// Textbook O(n)-per-eviction reference implementation of Young's
/// greedy-dual: explicit credit decrement on every eviction.
class ReferenceGreedyDual {
 public:
  explicit ReferenceGreedyDual(std::size_t capacity) : capacity_(capacity) {}

  bool contains(ObjectNum o) const { return credit_.contains(o); }

  void access(ObjectNum o, double cost) {
    credit_[o] = cost;
    seq_[o] = next_seq_++;  // tie-break by last credit refresh, like the fast impl
  }

  std::optional<ObjectNum> insert(ObjectNum o, double cost) {
    std::optional<ObjectNum> evicted;
    if (credit_.size() >= capacity_) {
      // Find min credit; FIFO tie-break by insertion sequence.
      auto victim = credit_.begin();
      for (auto it = credit_.begin(); it != credit_.end(); ++it) {
        if (it->second < victim->second ||
            (it->second == victim->second && seq_[it->first] < seq_[victim->first])) {
          victim = it;
        }
      }
      const double min_credit = victim->second;
      evicted = victim->first;
      seq_.erase(victim->first);
      credit_.erase(victim);
      for (auto& [obj, h] : credit_) h -= min_credit;
    }
    credit_[o] = cost;
    seq_[o] = next_seq_++;
    return evicted;
  }

  double credit(ObjectNum o) const { return credit_.at(o); }

 private:
  std::size_t capacity_;
  std::map<ObjectNum, double> credit_;
  std::map<ObjectNum, std::uint64_t> seq_;
  std::uint64_t next_seq_ = 0;
};

TEST(GreedyDual, MatchesBruteForceReferenceOnRandomTrace) {
  GreedyDualCache fast(8);
  ReferenceGreedyDual slow(8);
  Rng rng(42);
  const double costs[] = {1.0, 2.0, 5.0, 20.0};
  for (int step = 0; step < 5000; ++step) {
    const auto o = static_cast<ObjectNum>(rng.next_below(30));
    const double cost = costs[rng.next_below(4)];
    ASSERT_EQ(fast.contains(o), slow.contains(o)) << "step " << step;
    if (fast.contains(o)) {
      fast.access(o, cost);
      slow.access(o, cost);
    } else {
      const auto r = fast.insert(o, cost);
      const auto ref_evicted = slow.insert(o, cost);
      ASSERT_TRUE(r.inserted);
      ASSERT_EQ(r.evicted, ref_evicted) << "step " << step;
    }
  }
  // Deflated credits must agree too.
  for (const auto o : fast.contents()) {
    EXPECT_NEAR(fast.credit(o), slow.credit(o), 1e-9);
  }
}

TEST(GreedyDual, ExpensiveObjectsOutliveCheapOnes) {
  GreedyDualCache c(2);
  c.insert(1, 20.0);  // expensive (server fetch)
  c.insert(2, 1.4);   // cheap (P2P fetch)
  c.insert(3, 1.4);   // evicts 2 (min credit), not 1
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(GreedyDual, AgingEventuallyEvictsExpensiveIdleObjects) {
  GreedyDualCache c(2);
  c.insert(1, 20.0);
  c.insert(2, 5.0);
  // Repeated cheap insertions inflate L until the idle expensive object
  // becomes the minimum.
  bool evicted_one = false;
  for (int i = 0; i < 10 && !evicted_one; ++i) {
    const auto r = c.insert(static_cast<ObjectNum>(100 + i), 5.0);
    evicted_one = (r.evicted == std::optional<ObjectNum>(1));
  }
  EXPECT_TRUE(evicted_one);
}

TEST(GreedyDual, HitRestoresCredit) {
  GreedyDualCache c(2);
  c.insert(1, 10.0);
  c.insert(2, 2.0);
  c.access(2, 2.0);
  EXPECT_NEAR(c.credit(2), 2.0, 1e-12);
  c.insert(3, 5.0);  // evicts 2 (credit 2 < 10)
  EXPECT_FALSE(c.contains(2));
  EXPECT_NEAR(c.inflation(), 2.0, 1e-12);
  // Survivor's deflated credit dropped by the eviction minimum.
  EXPECT_NEAR(c.credit(1), 8.0, 1e-12);
}

TEST(GreedyDual, EraseAndZeroCapacity) {
  GreedyDualCache c(2);
  c.insert(1, 1.0);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  GreedyDualCache zero(0);
  EXPECT_FALSE(zero.insert(1, 1.0).inserted);
}

// Contract violations throw in every build type (an assert would vanish from
// release builds, where a duplicate insert once went unnoticed), and a
// rejected call leaves the cache unchanged.
TEST(GreedyDual, InsertOfResidentObjectThrows) {
  GreedyDualCache c(2);
  c.insert(1, 5.0);
  EXPECT_THROW(c.insert(1, 5.0), std::logic_error);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.credit(1), 5.0);
}

TEST(GreedyDual, AccessOfAbsentObjectThrows) {
  GreedyDualCache c(2);
  EXPECT_THROW(c.access(7, 1.0), std::logic_error);
  c.insert(7, 1.0);
  EXPECT_TRUE(c.erase(7));
  EXPECT_THROW(c.access(7, 1.0), std::logic_error);
  EXPECT_EQ(c.size(), 0u);
}

TEST(GreedyDual, NegativeOrNanCostThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  GreedyDualCache c(2);
  EXPECT_THROW(c.insert(1, -1.0), std::invalid_argument);
  EXPECT_THROW(c.insert(1, nan), std::invalid_argument);
  EXPECT_FALSE(c.contains(1));
  c.insert(1, 0.0);
  EXPECT_THROW(c.access(1, -0.5), std::invalid_argument);
  EXPECT_THROW(c.access(1, nan), std::invalid_argument);
  EXPECT_EQ(c.credit(1), 0.0);
  // Zero-capacity caches store nothing but still reject a bad cost.
  GreedyDualCache zero(0);
  EXPECT_THROW(zero.insert(1, nan), std::invalid_argument);
}

class CachePolicyCapacity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CachePolicyCapacity, AllPoliciesRespectCapacity) {
  const std::size_t cap = GetParam();
  LruCache lru(cap);
  LfuCache lfu(cap);
  GreedyDualCache gd(cap);
  Rng rng(cap + 17);
  for (int i = 0; i < 2000; ++i) {
    const auto o = static_cast<ObjectNum>(rng.next_below(200));
    const double cost = 1.0 + static_cast<double>(rng.next_below(20));
    for (Cache* c : {static_cast<Cache*>(&lru), static_cast<Cache*>(&lfu),
                     static_cast<Cache*>(&gd)}) {
      if (c->contains(o)) {
        c->access(o, cost);
      } else {
        c->insert(o, cost);
      }
      ASSERT_LE(c->size(), cap);
      ASSERT_EQ(c->contents().size(), c->size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CachePolicyCapacity,
                         ::testing::Values(1u, 2u, 7u, 64u, 500u));

/// One cache of a policy named by make_cache's spelling, or "cost-benefit"
/// for a CostBenefitCache alone in its cluster (declared first, the
/// coordinator outlives its member).
struct ContractSubject {
  std::unique_ptr<CostBenefitCoordinator> coordinator;
  std::unique_ptr<Cache> cache;

  ContractSubject(const std::string& policy, std::size_t capacity) {
    if (policy == "cost-benefit") {
      coordinator = std::make_unique<CostBenefitCoordinator>(
          std::vector<double>(16, 1.0), /*cluster_size=*/1, /*server_latency=*/20.0,
          /*proxy_latency=*/2.0);
      cache = std::make_unique<CostBenefitCache>(capacity, *coordinator);
    } else {
      cache = make_cache(*policy_from_string(policy), capacity);
    }
  }
};

std::vector<ObjectNum> sorted_contents(const Cache& c) {
  auto out = c.contents();
  std::sort(out.begin(), out.end());
  return out;
}

class CacheContract : public ::testing::TestWithParam<std::string> {};

// Every policy throws std::logic_error on a contract violation in every
// build type (an assert would vanish from release builds, where a duplicate
// insert once went unnoticed), and the rejected call changes nothing: a twin
// that never saw it keeps making the same decisions. The random stream
// re-inserts evicted objects, which for ARC are ghost hits and stay legal.
TEST_P(CacheContract, ViolationsThrowAndLeaveTheCacheUnchanged) {
  ContractSubject subject(GetParam(), 3);
  ContractSubject twin(GetParam(), 3);
  Cache& c = *subject.cache;
  for (const ObjectNum o : {0U, 1U}) {
    c.insert(o, 1.0);
    twin.cache->insert(o, 1.0);
  }
  EXPECT_THROW(c.insert(1, 1.0), std::logic_error);
  EXPECT_THROW(c.access(9, 1.0), std::logic_error);
  ASSERT_TRUE(c.erase(0));
  ASSERT_TRUE(twin.cache->erase(0));
  EXPECT_THROW(c.access(0, 1.0), std::logic_error);
  EXPECT_EQ(sorted_contents(c), sorted_contents(*twin.cache));

  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const auto o = static_cast<ObjectNum>(rng.next_below(12));
    if (c.contains(o)) {
      c.access(o, 1.0);
      twin.cache->access(o, 1.0);
      EXPECT_THROW(c.insert(o, 1.0), std::logic_error);
    } else {
      const auto ins = c.insert(o, 1.0);
      const auto twin_ins = twin.cache->insert(o, 1.0);
      ASSERT_EQ(ins.inserted, twin_ins.inserted) << i;
      ASSERT_EQ(ins.evicted, twin_ins.evicted) << i;
      if (!c.contains(o)) {
        EXPECT_THROW(c.access(o, 1.0), std::logic_error);
      }
    }
    ASSERT_EQ(sorted_contents(c), sorted_contents(*twin.cache)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(EveryPolicy, CacheContract,
                         ::testing::Values("lru", "lfu", "gd", "tinylfu-lru", "w-tinylfu",
                                           "arc", "cost-benefit"),
                         [](const ::testing::TestParamInfo<std::string>& policy) {
                           std::string name = policy.param;
                           std::erase(name, '-');
                           return name;
                         });

}  // namespace
}  // namespace webcache::cache
