// Least-Frequently-Used cache with Dynamic Aging.
//
// NC, SC, NC-EC and SC-EC use LFU replacement in the paper. The variant is
// LFU-DA (Arlitt et al., "Evaluating content management techniques for Web
// proxy caches"): eviction key = count + L, where L inflates to each
// eviction victim's key, and counts exist only while an object is cached.
// Aging lets the cache shed formerly-hot objects and track the current
// working set — the behaviour deployed "LFU" web caches of the paper's era
// actually had, and the variant that responds to temporal locality (pure
// LFU provably cannot when the popularity marginal is fixed).
// Ties are broken toward the least recently used object.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/eviction_heap.hpp"

namespace webcache::cache {

class LfuCache final : public Cache {
 public:
  explicit LfuCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override { return order_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return order_.contains(object);
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override {
    order_.reserve_universe(universe);
  }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Access count of a cached object since its admission (0 if not
  /// cached). Exposed for tests.
  [[nodiscard]] std::uint64_t frequency(ObjectNum object) const;

  /// Current aging inflation L (0 until the first eviction).
  [[nodiscard]] std::uint64_t aging_floor() const { return aging_floor_; }

 private:
  /// Heap priority of a cached object, ordered by (key, recency): the heap
  /// minimum is the eviction victim, with the least recent access breaking
  /// key ties. last_seq is unique per entry, so the order is total and
  /// matches the historical std::set<tuple> order. The heap is the cache's
  /// only index, so the priority also carries the access count, which the
  /// order ignores.
  struct Rank {
    std::uint64_t key = 0;   ///< eviction key: freq + the aging floor at the last access
    std::uint64_t last_seq = 0;
    std::uint64_t freq = 0;  ///< access count since admission
    friend bool operator<(const Rank& a, const Rank& b) {
      return a.key != b.key ? a.key < b.key : a.last_seq < b.last_seq;
    }
  };

  std::uint64_t seq_ = 0;
  std::uint64_t aging_floor_ = 0;
  EvictionHeap<Rank> order_;
};

}  // namespace webcache::cache
