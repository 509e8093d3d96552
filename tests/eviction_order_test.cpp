// Golden-sequence tests for the caches with a non-trivial victim order.
//
// LfuCache, GreedyDualCache and CostBenefitCache historically kept their
// victim order in a std::set<std::tuple<...>>; cost-benefit now keeps it in
// the indexed EvictionHeap, LFU-DA in one FIFO list per live key and
// greedy-dual in one FIFO list per cost. These tests rebuild the original
// std::set implementations locally and drive both through identical
// recorded traces (~10k pseudo-random operations per configuration),
// asserting that every insert returns the exact same victim, that
// peek_victim() agrees after every operation, and that the final contents
// match; the LFU-DA and greedy-dual drivers also compare the aging floor or
// inflation and every live object's count or credit after every step. Any
// divergence in tie-breaking (equal LFU-DA keys after aging, equal
// greedy-dual credits, equal cost-benefit values after clairvoyant decay to
// zero) would surface as a wrong victim. LRU, ARC and W-TinyLFU have no
// historical implementation to rebuild; their references are naive list
// models of the textbook algorithms, driven the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "cache/admission.hpp"
#include "cache/arc.hpp"
#include "cache/cost_benefit.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/w_tinylfu.hpp"

namespace {

using namespace webcache;
using cache::InsertResult;

// Deterministic 64-bit LCG (MMIX constants) so the recorded trace is stable
// across platforms and standard-library versions.
class TraceRng {
 public:
  explicit TraceRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

std::vector<ObjectNum> sorted(std::vector<ObjectNum> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --- reference LFU-DA: the historical std::set implementation ---------------

class RefLfu {
 public:
  explicit RefLfu(std::size_t capacity) : capacity_(capacity) {}

  bool contains(ObjectNum o) const { return entries_.contains(o); }

  void access(ObjectNum o) {
    auto& e = entries_.at(o);
    order_.erase({e.key, e.last_seq, o});
    ++e.freq;
    e.key = e.freq + aging_floor_;
    e.last_seq = ++seq_;
    order_.insert({e.key, e.last_seq, o});
  }

  InsertResult insert(ObjectNum o) {
    InsertResult result;
    result.inserted = true;
    if (entries_.size() >= capacity_) {
      const auto [vkey, vseq, victim] = *order_.begin();
      aging_floor_ = vkey;
      order_.erase(order_.begin());
      entries_.erase(victim);
      result.evicted = victim;
    }
    const Entry e{1, 1 + aging_floor_, ++seq_};
    entries_.emplace(o, e);
    order_.insert({e.key, e.last_seq, o});
    return result;
  }

  bool erase(ObjectNum o) {
    const auto it = entries_.find(o);
    if (it == entries_.end()) return false;
    order_.erase({it->second.key, it->second.last_seq, o});
    entries_.erase(it);
    return true;
  }

  std::optional<ObjectNum> peek_victim() const {
    if (order_.empty()) return std::nullopt;
    return std::get<2>(*order_.begin());
  }

  std::vector<ObjectNum> contents() const {
    std::vector<ObjectNum> out;
    for (const auto& [o, _] : entries_) out.push_back(o);
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  std::uint64_t aging_floor() const { return aging_floor_; }
  std::uint64_t frequency(ObjectNum o) const { return entries_.at(o).freq; }
  std::uint64_t key(ObjectNum o) const { return entries_.at(o).key; }

 private:
  struct Entry {
    std::uint64_t freq;
    std::uint64_t key;
    std::uint64_t last_seq;
  };
  std::size_t capacity_;
  std::uint64_t seq_ = 0;
  std::uint64_t aging_floor_ = 0;
  std::set<std::tuple<std::uint64_t, std::uint64_t, ObjectNum>> order_;
  std::map<ObjectNum, Entry> entries_;
};

// The op mix of the simulator's LFU-DA caches (inserts, hits, and the
// erases of a tier-2 promotion) with two stressors. Erasing every 7th step
// leaves gaps at the low keys, so not-full inserts land below keys an
// earlier victim search has already passed. A hot phase then keeps one
// object hot until its key runs several times the capacity above the floor,
// so keys that share a ring slot coexist; draining everything else leaves
// that key alone, far above the floor. After every step the victim, the
// floor, the size and every live object's count must match the reference.
void drive_lfu(std::size_t capacity) {
  // ~6x capacity: constant eviction churn.
  const auto objects = static_cast<ObjectNum>(std::max<std::size_t>(64, 6 * capacity));
  const ObjectNum hot = objects;  // outside every random draw: never erased by one
  constexpr int kSteps = 10'000;
  const int hot_steps = static_cast<int>(12 * capacity) + 200;
  const int refill_steps = static_cast<int>(4 * capacity) + 100;

  cache::LfuCache real(capacity);
  RefLfu ref(capacity);
  TraceRng rng(2003 + capacity);

  const auto check = [&](int step) {
    ASSERT_EQ(real.peek_victim(), ref.peek_victim()) << "step " << step;
    ASSERT_EQ(real.aging_floor(), ref.aging_floor()) << "step " << step;
    ASSERT_EQ(real.size(), ref.size()) << "step " << step;
    for (const ObjectNum live : ref.contents()) {
      ASSERT_EQ(real.frequency(live), ref.frequency(live)) << "step " << step << " object " << live;
    }
  };
  const auto touch = [&](ObjectNum o, int step) {
    if (real.contains(o)) {
      ASSERT_TRUE(ref.contains(o)) << "step " << step;
      real.access(o, 1.0);
      ref.access(o);
    } else {
      ASSERT_FALSE(ref.contains(o)) << "step " << step;
      const InsertResult got = real.insert(o, 1.0);
      const InsertResult want = ref.insert(o);
      ASSERT_EQ(got.inserted, want.inserted) << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
    }
  };
  // Skewed object choice (square of a uniform draw) so some objects grow
  // large frequencies while a long tail of one-timers churns the victim end
  // of the order — the regime where tie-breaks matter. One step in seven
  // erases a (possibly absent) random object instead.
  const auto churn = [&](int step) {
    const auto u = rng.below(objects);
    const ObjectNum o = static_cast<ObjectNum>((u * u) / objects);
    if (step % 7 == 6) {
      const auto target = static_cast<ObjectNum>(rng.below(objects));
      ASSERT_EQ(real.erase(target), ref.erase(target)) << "step " << step;
    } else {
      ASSERT_NO_FATAL_FAILURE(touch(o, step));
    }
  };

  int step = 0;
  for (; step < kSteps; ++step) {
    ASSERT_NO_FATAL_FAILURE(churn(step));
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  for (const int end = step + hot_steps; step < end; ++step) {
    if (step % 2 == 0) {
      ASSERT_NO_FATAL_FAILURE(touch(hot, step));
    } else {
      ASSERT_NO_FATAL_FAILURE(churn(step));
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  // A capacity-1 cache evicts the hot object on every other insert.
  if (capacity > 1) {
    ASSERT_TRUE(ref.contains(hot));
    ASSERT_GE(ref.key(hot) - ref.aging_floor(), 4 * capacity);
  }
  for (const ObjectNum live : ref.contents()) {
    if (live == hot) continue;
    ASSERT_TRUE(real.erase(live)) << "step " << step;
    ASSERT_TRUE(ref.erase(live)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(check(step));
    ++step;
  }
  for (const int end = step + refill_steps; step < end; ++step) {
    ASSERT_NO_FATAL_FAILURE(churn(step));
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  EXPECT_EQ(sorted(real.contents()), sorted(ref.contents()));
}

TEST(EvictionOrder, LfuDynamicAgingMatchesSetReference) {
  for (const std::size_t capacity : {1U, 8U, 64U, 512U}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    ASSERT_NO_FATAL_FAILURE(drive_lfu(capacity));
  }
}

// LFU-DA aging-floor ties, pinned explicitly: after the floor rises, a burst
// of fresh single-access inserts all carry key = 1 + floor, and the victim
// among them must be the least recently inserted (smallest seq).
TEST(EvictionOrder, LfuDaAgingFloorTieBreaksBySeq) {
  constexpr std::size_t kCapacity = 8;
  cache::LfuCache real(kCapacity);
  RefLfu ref(kCapacity);

  // Warm a hot set so evictions raise the floor above 1.
  for (ObjectNum o = 0; o < kCapacity; ++o) {
    real.insert(o, 1.0);
    ref.insert(o);
    for (int hit = 0; hit < 5; ++hit) {
      real.access(o, 1.0);
      ref.access(o);
    }
  }
  // 32 fresh one-timers: every insert evicts, the floor ratchets, and all
  // newcomers tie on key = 1 + floor until the floor moves again.
  for (ObjectNum o = 100; o < 132; ++o) {
    const InsertResult got = real.insert(o, 1.0);
    const InsertResult want = ref.insert(o);
    ASSERT_EQ(got.evicted, want.evicted) << "object " << o;
    ASSERT_EQ(real.peek_victim(), ref.peek_victim()) << "object " << o;
    ASSERT_EQ(real.aging_floor(), 6u + (o - 100) / kCapacity) << "object " << o;
  }
}

// A victim far above the floor that shares its ring slot with an older
// entry of a higher key: keys 16 and 32 fall in one slot of any ring of up
// to 16 slots, and no live key is within a turn of the floor (0). The
// search must take the lowest key it saw, not that slot's head.
TEST(EvictionOrder, LfuDaVictimFarAboveTheFloor) {
  constexpr std::size_t kCapacity = 3;
  cache::LfuCache real(kCapacity);
  RefLfu ref(kCapacity);
  const auto hit = [&](ObjectNum o, int times) {
    for (int i = 0; i < times; ++i) {
      real.access(o, 1.0);
      ref.access(o);
    }
  };
  for (ObjectNum o = 0; o < 2; ++o) {
    real.insert(o, 1.0);
    ref.insert(o);
  }
  hit(0, 31);  // key 32, re-keyed first
  hit(1, 15);  // key 16
  ASSERT_EQ(real.peek_victim(), ref.peek_victim());
  ASSERT_EQ(real.peek_victim(), ObjectNum{1});
  // A newcomer lands at key 1, below both; once full, the next insert
  // evicts it and raises the floor to 1.
  for (ObjectNum o = 10; o < 13; ++o) {
    const InsertResult got = real.insert(o, 1.0);
    const InsertResult want = ref.insert(o);
    ASSERT_EQ(got.evicted, want.evicted) << "object " << o;
    ASSERT_EQ(real.peek_victim(), ref.peek_victim()) << "object " << o;
    ASSERT_EQ(real.aging_floor(), ref.aging_floor()) << "object " << o;
  }
}

// --- reference greedy-dual: the historical std::set implementation -----------

class RefGreedyDual {
 public:
  explicit RefGreedyDual(std::size_t capacity) : capacity_(capacity) {}

  bool contains(ObjectNum o) const { return entries_.contains(o); }

  void access(ObjectNum o, double cost) {
    auto& e = entries_.at(o);
    order_.erase({e.inflated_credit, e.seq, o});
    e.inflated_credit = cost + inflation_;
    e.seq = ++seq_;
    order_.insert({e.inflated_credit, e.seq, o});
  }

  InsertResult insert(ObjectNum o, double cost) {
    InsertResult result;
    result.inserted = true;
    if (entries_.size() >= capacity_) {
      const auto [vcredit, vseq, victim] = *order_.begin();
      inflation_ = vcredit;
      order_.erase(order_.begin());
      entries_.erase(victim);
      result.evicted = victim;
    }
    const Entry e{cost + inflation_, ++seq_};
    entries_.emplace(o, e);
    order_.insert({e.inflated_credit, e.seq, o});
    return result;
  }

  bool erase(ObjectNum o) {
    const auto it = entries_.find(o);
    if (it == entries_.end()) return false;
    order_.erase({it->second.inflated_credit, it->second.seq, o});
    entries_.erase(it);
    return true;
  }

  std::optional<ObjectNum> peek_victim() const {
    if (order_.empty()) return std::nullopt;
    return std::get<2>(*order_.begin());
  }

  std::vector<ObjectNum> contents() const {
    std::vector<ObjectNum> out;
    for (const auto& [o, _] : entries_) out.push_back(o);
    return out;
  }

  double inflation() const { return inflation_; }
  double credit(ObjectNum o) const { return entries_.at(o).inflated_credit - inflation_; }

 private:
  struct Entry {
    double inflated_credit;
    std::uint64_t seq;
  };
  std::size_t capacity_;
  double inflation_ = 0.0;
  std::uint64_t seq_ = 0;
  std::set<std::tuple<double, std::uint64_t, ObjectNum>> order_;
  std::map<ObjectNum, Entry> entries_;
};

// The op mix the simulator issues: inserts and re-keys at the latency
// model's fetch levels, the 0-cost re-key of a P2P fetch, and frequent
// erases (directory-driven removals, crashed clients). After every step the
// victim, inflation and every live credit must match the reference exactly.
void drive_greedy_dual(std::size_t capacity) {
  constexpr ObjectNum kObjects = 400;
  constexpr int kSteps = 10'000;
  // A small alphabet produces many exactly-equal credits, so the seq
  // tie-break is load-bearing throughout the run.
  constexpr double kCosts[] = {0.0, 1.4, 2.0, 3.4, 5.0, 20.0, 45.0};

  cache::GreedyDualCache real(capacity);
  RefGreedyDual ref(capacity);
  TraceRng rng(1998 + capacity);

  for (int step = 0; step < kSteps; ++step) {
    const auto u = rng.below(kObjects);
    const ObjectNum o = static_cast<ObjectNum>((u * u) / kObjects);
    const double cost = kCosts[rng.below(std::size(kCosts))];

    if (step % 7 == 6) {
      const auto target = static_cast<ObjectNum>(rng.below(kObjects));
      ASSERT_EQ(real.erase(target), ref.erase(target)) << "step " << step;
    } else if (real.contains(o)) {
      ASSERT_TRUE(ref.contains(o)) << "step " << step;
      // One re-key in three is P2PClientCache::fetch's access(o, 0.0).
      const double rekey = rng.below(3) == 0 ? 0.0 : cost;
      real.access(o, rekey);
      ref.access(o, rekey);
    } else {
      ASSERT_FALSE(ref.contains(o)) << "step " << step;
      const InsertResult got = real.insert(o, cost);
      const InsertResult want = ref.insert(o, cost);
      ASSERT_EQ(got.inserted, want.inserted) << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
    }
    ASSERT_EQ(real.peek_victim(), ref.peek_victim()) << "step " << step;
    ASSERT_EQ(real.inflation(), ref.inflation()) << "step " << step;
    ASSERT_EQ(real.size(), ref.contents().size()) << "step " << step;
    for (const ObjectNum live : ref.contents()) {
      ASSERT_EQ(real.credit(live), ref.credit(live)) << "step " << step << " object " << live;
    }
  }
  EXPECT_EQ(sorted(real.contents()), sorted(ref.contents()));
}

TEST(EvictionOrder, GreedyDualMatchesSetReference) {
  for (const std::size_t capacity : {1U, 64U}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    ASSERT_NO_FATAL_FAILURE(drive_greedy_dual(capacity));
  }
}

// --- reference cost-benefit cluster: coordinator + per-cache std::set --------
//
// CostBenefitCache is inseparable from its coordinator (replica-count
// repricing, clairvoyant frequency decay), so the reference reimplements the
// whole cluster: member caches are indices, victim orders are the historical
// std::set<tuple<value, seq, object>>.

class RefCbCluster {
 public:
  RefCbCluster(std::vector<double> per_proxy_frequency, unsigned cluster_size,
               double server_latency, double proxy_latency, std::size_t capacity)
      : frequency_(std::move(per_proxy_frequency)),
        cluster_size_(cluster_size),
        server_latency_(server_latency),
        proxy_latency_(proxy_latency),
        caches_(cluster_size) {
    for (auto& c : caches_) c.capacity = capacity;
  }

  bool contains(unsigned idx, ObjectNum o) const {
    return caches_[idx].entries.contains(o);
  }

  void consume(ObjectNum o) {
    if (o >= frequency_.size()) return;
    frequency_[o] =
        std::max(0.0, frequency_[o] - 1.0 / static_cast<double>(cluster_size_));
    const auto it = holders_.find(o);
    if (it == holders_.end()) return;
    const double value = copy_value(o, static_cast<unsigned>(it->second.size()));
    for (const unsigned holder : it->second) reprice(holder, o, value);
  }

  InsertResult insert(unsigned idx, ObjectNum o) {
    auto& c = caches_[idx];
    const auto hit = holders_.find(o);
    const unsigned replicas_after =
        (hit == holders_.end() ? 0 : static_cast<unsigned>(hit->second.size())) + 1;
    const double new_value = copy_value(o, replicas_after);

    InsertResult result;
    if (c.entries.size() >= c.capacity) {
      const auto [vvalue, vseq, victim] = *c.order.begin();
      if (new_value <= vvalue) return result;
      c.order.erase(c.order.begin());
      c.entries.erase(victim);
      result.evicted = victim;
      on_copy_removed(victim, idx);
    }
    result.inserted = true;
    const Entry e{new_value, ++c.seq};
    c.entries.emplace(o, e);
    c.order.insert({e.value, e.seq, o});
    on_copy_added(o, idx);
    return result;
  }

  bool erase(unsigned idx, ObjectNum o) {
    auto& c = caches_[idx];
    const auto it = c.entries.find(o);
    if (it == c.entries.end()) return false;
    c.order.erase({it->second.value, it->second.seq, o});
    c.entries.erase(it);
    on_copy_removed(o, idx);
    return true;
  }

  std::optional<ObjectNum> peek_victim(unsigned idx) const {
    const auto& c = caches_[idx];
    if (c.order.empty()) return std::nullopt;
    return std::get<2>(*c.order.begin());
  }

  double value_of(unsigned idx, ObjectNum o) const {
    const auto it = caches_[idx].entries.find(o);
    return it == caches_[idx].entries.end() ? 0.0 : it->second.value;
  }

  std::vector<ObjectNum> contents(unsigned idx) const {
    std::vector<ObjectNum> out;
    for (const auto& [o, _] : caches_[idx].entries) out.push_back(o);
    return out;
  }

 private:
  struct Entry {
    double value;
    std::uint64_t seq;
  };
  struct Cache {
    std::size_t capacity = 0;
    std::uint64_t seq = 0;
    std::set<std::tuple<double, std::uint64_t, ObjectNum>> order;
    std::map<ObjectNum, Entry> entries;
  };

  double copy_value(ObjectNum o, unsigned replicas) const {
    const double f = o < frequency_.size() ? frequency_[o] : 0.0;
    if (replicas <= 1) {
      return f * (server_latency_ + static_cast<double>(cluster_size_ - 1) *
                                        (server_latency_ - proxy_latency_));
    }
    return f * proxy_latency_;
  }

  void reprice(unsigned idx, ObjectNum o, double new_value) {
    auto& c = caches_[idx];
    auto& e = c.entries.at(o);
    if (e.value == new_value) return;
    c.order.erase({e.value, e.seq, o});
    e.value = new_value;
    c.order.insert({e.value, e.seq, o});
  }

  void on_copy_added(ObjectNum o, unsigned idx) {
    auto& holders = holders_[o];
    holders.push_back(idx);
    if (holders.size() == 2) {
      const unsigned other = holders.front() == idx ? holders.back() : holders.front();
      reprice(other, o, copy_value(o, 2));
    }
  }

  void on_copy_removed(ObjectNum o, unsigned idx) {
    const auto it = holders_.find(o);
    ASSERT_TRUE(it != holders_.end());
    std::erase(it->second, idx);
    if (it->second.size() == 1) {
      reprice(it->second.front(), o, copy_value(o, 1));
    } else if (it->second.empty()) {
      holders_.erase(it);
    }
  }

  std::vector<double> frequency_;
  unsigned cluster_size_;
  double server_latency_;
  double proxy_latency_;
  std::vector<Cache> caches_;
  std::map<ObjectNum, std::vector<unsigned>> holders_;
};

TEST(EvictionOrder, CostBenefitClusterMatchesSetReference) {
  constexpr unsigned kProxies = 3;
  constexpr std::size_t kCapacity = 48;
  constexpr ObjectNum kObjects = 300;
  constexpr int kSteps = 10'000;
  constexpr double kTs = 25.0;
  constexpr double kTc = 5.0;

  // Perfect-knowledge frequencies with deliberate collisions (o % 17) so many
  // copies share exact values; small enough that consume() drains popular
  // objects to 0 mid-run, flooding the victim end with equal-zero values.
  std::vector<double> freqs(kObjects);
  for (ObjectNum o = 0; o < kObjects; ++o) {
    freqs[o] = 1.0 + static_cast<double>(o % 17) * 0.5;
  }

  cache::CostBenefitCoordinator coord(freqs, kProxies, kTs, kTc);
  std::vector<std::unique_ptr<cache::CostBenefitCache>> real;
  for (unsigned p = 0; p < kProxies; ++p) {
    real.push_back(std::make_unique<cache::CostBenefitCache>(kCapacity, coord));
  }
  RefCbCluster ref(freqs, kProxies, kTs, kTc, kCapacity);

  TraceRng rng(2001);
  for (int step = 0; step < kSteps; ++step) {
    const auto u = rng.below(kObjects);
    const ObjectNum o = static_cast<ObjectNum>((u * u) / kObjects);
    const auto idx = static_cast<unsigned>(rng.below(kProxies));

    // Clairvoyant accounting first, exactly as the FC driver does.
    coord.consume(o);
    ref.consume(o);

    if (step % 101 == 100) {
      const auto target = static_cast<ObjectNum>(rng.below(kObjects));
      ASSERT_EQ(real[idx]->erase(target), ref.erase(idx, target)) << "step " << step;
    } else if (real[idx]->contains(o)) {
      ASSERT_TRUE(ref.contains(idx, o)) << "step " << step;
      real[idx]->access(o, 0.0);  // values are static; access is a no-op
    } else {
      ASSERT_FALSE(ref.contains(idx, o)) << "step " << step;
      const InsertResult got = real[idx]->insert(o, 0.0);
      const InsertResult want = ref.insert(idx, o);
      ASSERT_EQ(got.inserted, want.inserted) << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
    }
    for (unsigned p = 0; p < kProxies; ++p) {
      ASSERT_EQ(real[p]->peek_victim(), ref.peek_victim(p))
          << "step " << step << " proxy " << p;
      if (const auto victim = real[p]->peek_victim()) {
        ASSERT_EQ(real[p]->value_of(*victim), ref.value_of(p, *victim))
            << "step " << step << " proxy " << p;
      }
    }
  }
  for (unsigned p = 0; p < kProxies; ++p) {
    EXPECT_EQ(sorted(real[p]->contents()), sorted(ref.contents(p))) << "proxy " << p;
  }
}

// --- reference LRU: a naive list, most recently used first --------------------

class RefLru {
 public:
  explicit RefLru(std::size_t capacity) : capacity_(capacity) {}

  bool contains(ObjectNum o) const {
    return std::find(order_.begin(), order_.end(), o) != order_.end();
  }

  void access(ObjectNum o) {
    order_.remove(o);
    order_.push_front(o);
  }

  InsertResult insert(ObjectNum o) {
    InsertResult result;
    result.inserted = true;
    if (order_.size() >= capacity_) {
      result.evicted = order_.back();
      order_.pop_back();
    }
    order_.push_front(o);
    return result;
  }

  bool erase(ObjectNum o) {
    const std::size_t before = order_.size();
    order_.remove(o);
    return order_.size() != before;
  }

  std::optional<ObjectNum> peek_victim() const {
    if (order_.empty()) return std::nullopt;
    return order_.back();
  }

  std::size_t size() const { return order_.size(); }

 private:
  std::size_t capacity_;
  std::list<ObjectNum> order_;
};

// LRU ignores the cost its caller passes, so every step passes a different
// one: a cache that let cost into its order would evict like greedy-dual and
// diverge. One step in seven erases a (possibly absent) random object.
void drive_lru(std::size_t capacity) {
  const auto objects = static_cast<ObjectNum>(4 * capacity + 16);
  constexpr int kSteps = 10'000;

  cache::LruCache real(capacity);
  RefLru ref(capacity);
  TraceRng rng(1970 + capacity);

  for (int step = 0; step < kSteps; ++step) {
    const auto u = rng.below(objects);
    const ObjectNum o = static_cast<ObjectNum>((u * u) / objects);
    const double cost = static_cast<double>(rng.below(1000)) / 8.0;

    ObjectNum touched = o;
    if (step % 7 == 6) {
      touched = static_cast<ObjectNum>(rng.below(objects));
      ASSERT_EQ(real.erase(touched), ref.erase(touched)) << "step " << step;
    } else if (real.contains(o)) {
      ASSERT_TRUE(ref.contains(o)) << "step " << step;
      real.access(o, cost);
      ref.access(o);
    } else {
      ASSERT_FALSE(ref.contains(o)) << "step " << step;
      const InsertResult got = real.insert(o, cost);
      const InsertResult want = ref.insert(o);
      ASSERT_EQ(got.inserted, want.inserted) << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
    }
    ASSERT_EQ(real.peek_victim(), ref.peek_victim()) << "step " << step;
    ASSERT_EQ(real.size(), ref.size()) << "step " << step;
    ASSERT_EQ(real.contains(touched), ref.contains(touched)) << "step " << step;
  }
}

TEST(EvictionOrder, LruMatchesListReference) {
  for (const std::size_t capacity : {1U, 8U, 64U, 512U}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    ASSERT_NO_FATAL_FAILURE(drive_lru(capacity));
  }
}

// --- reference ARC: the Megiddo-Modha pseudocode ----------------------------
//
// ARC(c) as published (Megiddo & Modha, FAST 2003, Fig. 4), case by case over
// four naive lists, most recently used first. p is a page count, so the
// adaptation ratios |B2|/|B1| and |B1|/|B2| round down. The Cache contract
// maps Case I to access() and Cases II-IV to insert(): a ghost hit is a miss,
// so the caller offers the page again. Two rules cover what the pseudocode
// never meets, a cache left short by erase(): erase() drops the page from
// whichever list holds it (forgetting a ghost reports false), and a miss that
// finds a free slot fills it without REPLACE.

class RefArc {
 public:
  explicit RefArc(std::size_t c) : c_(c) {}

  bool contains(ObjectNum x) const { return in(t1_, x) || in(t2_, x); }

  // Case I: move x to the MRU position in T2.
  void access(ObjectNum x) {
    t1_.remove(x);
    t2_.remove(x);
    t2_.push_front(x);
  }

  InsertResult insert(ObjectNum x) {
    InsertResult result;
    result.inserted = true;
    if (in(b1_, x)) {
      // Case II: p = min(p + d1, c), d1 = 1 if |B1| >= |B2| else |B2|/|B1|.
      const std::size_t d1 = b1_.size() >= b2_.size() ? 1 : b2_.size() / b1_.size();
      p_ = std::min(p_ + d1, c_);
      result.evicted = replace(/*x_in_b2=*/false);
      b1_.remove(x);
      t2_.push_front(x);
    } else if (in(b2_, x)) {
      // Case III: p = max(p - d2, 0), d2 = 1 if |B2| >= |B1| else |B1|/|B2|.
      const std::size_t d2 = b2_.size() >= b1_.size() ? 1 : b1_.size() / b2_.size();
      p_ = p_ > d2 ? p_ - d2 : 0;
      result.evicted = replace(/*x_in_b2=*/true);
      b2_.remove(x);
      t2_.push_front(x);
    } else {
      // Case IV: x is in none of the four lists.
      const std::size_t l1 = t1_.size() + b1_.size();
      const std::size_t total = l1 + t2_.size() + b2_.size();
      if (l1 == c_) {
        // Case A: L1 has exactly c pages.
        if (t1_.size() < c_) {
          b1_.pop_back();
          result.evicted = replace(/*x_in_b2=*/false);
        } else {
          // B1 is empty: T1's LRU page leaves the cache without a ghost.
          result.evicted = t1_.back();
          t1_.pop_back();
        }
      } else if (total >= c_) {
        // Case B: L1 has fewer than c pages.
        if (total == 2 * c_) b2_.pop_back();
        result.evicted = replace(/*x_in_b2=*/false);
      }
      t1_.push_front(x);
    }
    return result;
  }

  bool erase(ObjectNum x) {
    const bool cached = contains(x);
    for (std::list<ObjectNum>* l : {&t1_, &t2_, &b1_, &b2_}) l->remove(x);
    return cached;
  }

  // The page a Case IV miss would evict from a full cache: T1's LRU when T2
  // is empty (then T1 holds all c pages and Case A applies), else the page
  // REPLACE demotes for an x outside B2.
  std::optional<ObjectNum> peek_victim() const {
    if (t1_.empty() && t2_.empty()) return std::nullopt;
    if (t2_.empty() || (!t1_.empty() && t1_.size() > p_)) return t1_.back();
    return t2_.back();
  }

  std::size_t p() const { return p_; }
  std::size_t ghost_size() const { return b1_.size() + b2_.size(); }
  std::size_t size() const { return t1_.size() + t2_.size(); }

 private:
  static bool in(const std::list<ObjectNum>& l, ObjectNum x) {
    return std::find(l.begin(), l.end(), x) != l.end();
  }

  // REPLACE(x, p): demote T1's LRU page to B1's MRU position when T1 is
  // non-empty and exceeds p (or equals p for an x in B2), else T2's to B2.
  std::optional<ObjectNum> replace(bool x_in_b2) {
    if (size() < c_) return std::nullopt;
    const bool from_t1 = !t1_.empty() && (t1_.size() > p_ || (x_in_b2 && t1_.size() == p_));
    std::list<ObjectNum>& from = from_t1 ? t1_ : t2_;
    std::list<ObjectNum>& ghost = from_t1 ? b1_ : b2_;
    const ObjectNum victim = from.back();
    from.pop_back();
    ghost.push_front(victim);
    return victim;
  }

  std::size_t c_;
  std::size_t p_ = 0;
  std::list<ObjectNum> t1_, t2_, b1_, b2_;
};

// Skewed draws over 4c + 16 objects revisit pages while they sit in T1 or T2
// and after they fall into B1 or B2, so both ghost hits and both adaptation
// directions occur; one step in seven erases a random page, cached, ghost or
// unknown. After every step the victim, p, the ghost count and the size must
// match the reference.
void drive_arc(std::size_t capacity) {
  const auto objects = static_cast<ObjectNum>(4 * capacity + 16);
  constexpr int kSteps = 10'000;

  cache::ArcCache real(capacity);
  RefArc ref(capacity);
  TraceRng rng(2003 + capacity);

  for (int step = 0; step < kSteps; ++step) {
    const auto u = rng.below(objects);
    const ObjectNum o = static_cast<ObjectNum>((u * u) / objects);

    if (step % 7 == 6) {
      const auto target = static_cast<ObjectNum>(rng.below(objects));
      ASSERT_EQ(real.erase(target), ref.erase(target)) << "step " << step;
    } else if (real.contains(o)) {
      ASSERT_TRUE(ref.contains(o)) << "step " << step;
      real.access(o, 1.0);
      ref.access(o);
    } else {
      ASSERT_FALSE(ref.contains(o)) << "step " << step;
      const InsertResult got = real.insert(o, 1.0);
      const InsertResult want = ref.insert(o);
      ASSERT_EQ(got.inserted, want.inserted) << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
    }
    ASSERT_EQ(real.peek_victim(), ref.peek_victim()) << "step " << step;
    ASSERT_EQ(real.target_p(), ref.p()) << "step " << step;
    ASSERT_EQ(real.ghost_size(), ref.ghost_size()) << "step " << step;
    ASSERT_EQ(real.size(), ref.size()) << "step " << step;
  }
}

TEST(EvictionOrder, ArcMatchesFourListReference) {
  for (const std::size_t capacity : {1U, 4U, 32U, 256U}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    ASSERT_NO_FATAL_FAILURE(drive_arc(capacity));
  }
}

// --- reference W-TinyLFU: window LRU, SLRU main region, sketch duel ----------
//
// W-TinyLFU(c) as Einziger, Friedman & Manes describe it, over three naive
// lists, most recently used first: a window of max(1, c/100) entries and a
// main region of the rest, split into a protected segment of 4/5 of it and a
// probation segment. A newcomer enters the window. The window's overflow is
// the candidate: while the main region has room it joins probation; once the
// main region is full it duels probation's LRU (protected's when probation is
// empty) and displaces it only with a strictly higher sketch estimate. A
// probation hit promotes to protected, whose overflow demotes protected's LRU
// to probation's MRU. A cache with no main region is a plain window LRU. The
// reference owns its own AdmissionFilter and feeds it every reference the
// cache records, so both sides duel on identical estimates.

class RefWTinyLfu {
 public:
  explicit RefWTinyLfu(std::size_t c)
      : c_(c),
        filter_(c),
        window_cap_(c == 0 ? 0 : std::max<std::size_t>(1, c / 100)),
        protected_cap_((c - std::min(c, window_cap_)) * 4 / 5) {}

  bool contains(ObjectNum x) const {
    return in(window_, x) || in(probation_, x) || in(protected_, x);
  }

  void access(ObjectNum x) {
    record(x);
    if (in(window_, x)) {
      window_.remove(x);
      window_.push_front(x);
    } else if (in(protected_, x)) {
      protected_.remove(x);
      protected_.push_front(x);
    } else {
      probation_.remove(x);
      protected_.push_front(x);
      if (protected_.size() > protected_cap_) {
        probation_.push_front(protected_.back());
        protected_.pop_back();
        ++demotions;
      }
    }
  }

  InsertResult insert(ObjectNum x) {
    record(x);
    InsertResult result;
    if (c_ == 0) return result;
    result.inserted = true;
    window_.push_front(x);
    if (window_.size() <= window_cap_) return result;
    const ObjectNum candidate = window_.back();
    window_.pop_back();
    if (c_ == window_cap_) {
      result.evicted = candidate;
    } else if (probation_.size() + protected_.size() < c_ - window_cap_) {
      probation_.push_front(candidate);
      ++fills;
    } else {
      std::list<ObjectNum>& from = probation_.empty() ? protected_ : probation_;
      const ObjectNum victim = from.back();
      if (filter_.estimate(candidate) > filter_.estimate(victim)) {
        from.pop_back();
        probation_.push_front(candidate);
        result.evicted = victim;
        ++accepts;
      } else {
        result.evicted = candidate;
        ++rejects;
      }
    }
    return result;
  }

  bool erase(ObjectNum x) {
    const bool cached = contains(x);
    for (std::list<ObjectNum>* l : {&window_, &probation_, &protected_}) l->remove(x);
    return cached;
  }

  std::optional<ObjectNum> peek_victim() const {
    for (const std::list<ObjectNum>* l : {&probation_, &protected_, &window_}) {
      if (!l->empty()) return l->back();
    }
    return std::nullopt;
  }

  std::size_t size() const { return window_.size() + probation_.size() + protected_.size(); }
  std::uint64_t halvings() const { return filter_.halvings(); }

  std::uint64_t accepts = 0;    ///< duels the candidate won
  std::uint64_t rejects = 0;    ///< duels the candidate lost
  std::uint64_t demotions = 0;  ///< protected overflows
  std::uint64_t fills = 0;      ///< candidates admitted to a main region with room

 private:
  static bool in(const std::list<ObjectNum>& l, ObjectNum x) {
    return std::find(l.begin(), l.end(), x) != l.end();
  }

  void record(ObjectNum x) { filter_.record_access(x); }

  std::size_t c_;
  cache::AdmissionFilter filter_;
  std::size_t window_cap_;
  std::size_t protected_cap_;
  std::list<ObjectNum> window_, probation_, protected_;
};

// Skewed draws over 4c + 16 objects keep a frequent core that wins duels and
// a tail of rare objects that loses them, while erasing one random object in
// seven reopens room in the main region. After every step the evictee, the
// victim, the size and the sketch's halving count must match the reference.
// From capacity 3 up, every branch the reference counts must have run.
void drive_w_tinylfu(std::size_t capacity) {
  const auto objects = static_cast<ObjectNum>(4 * capacity + 16);
  constexpr int kSteps = 20'000;

  cache::WTinyLfuCache real(capacity);
  RefWTinyLfu ref(capacity);
  TraceRng rng(2017 + capacity);

  for (int step = 0; step < kSteps; ++step) {
    const auto u = rng.below(objects);
    const ObjectNum o = static_cast<ObjectNum>((u * u) / objects);

    if (step % 7 == 6) {
      const auto target = static_cast<ObjectNum>(rng.below(objects));
      ASSERT_EQ(real.erase(target), ref.erase(target)) << "step " << step;
    } else if (real.contains(o)) {
      ASSERT_TRUE(ref.contains(o)) << "step " << step;
      real.access(o, 1.0);
      ref.access(o);
    } else {
      ASSERT_FALSE(ref.contains(o)) << "step " << step;
      const InsertResult got = real.insert(o, 1.0);
      const InsertResult want = ref.insert(o);
      ASSERT_EQ(got.inserted, want.inserted) << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
    }
    ASSERT_EQ(real.peek_victim(), ref.peek_victim()) << "step " << step;
    ASSERT_EQ(real.size(), ref.size()) << "step " << step;
    ASSERT_EQ(real.filter().halvings(), ref.halvings()) << "step " << step;
  }
  if (capacity >= 3) {
    EXPECT_GT(ref.accepts, 0U);
    EXPECT_GT(ref.rejects, 0U);
    EXPECT_GT(ref.demotions, 0U);
    EXPECT_GT(ref.fills, 0U);
    EXPECT_GT(ref.halvings(), 0U);
  }
}

TEST(EvictionOrder, WTinyLfuMatchesSegmentReference) {
  for (const std::size_t capacity : {1U, 2U, 3U, 5U, 64U, 100U, 512U, 1000U}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    ASSERT_NO_FATAL_FAILURE(drive_w_tinylfu(capacity));
  }
}

}  // namespace
