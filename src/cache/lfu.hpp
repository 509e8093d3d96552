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
//
// O(1) per operation, with no heap: one FIFO list of the shared list store
// (cache/node_lists.hpp) per live key. The lists are exact for two reasons.
//  * Every (re)key appends at its key's tail, so each list is already in
//    (key, recency) order and its head is that key's least recent entry.
//  * No live key is ever below the floor L. A newcomer gets L + 1, a hit
//    moves an object to count + 1 + L, above its old key, and an eviction
//    raises L to the victim's key, the minimum. So the victim is the head of
//    the lowest non-empty key at or above L, and a scan upward from L finds
//    it. The scan pays for itself: it ends at the victim's key, which
//    becomes the new floor.
// Memory is O(capacity), never O(key span): a hot object's key runs above
// the floor by up to its access count, without bound on a long trace, so
// the store's lists form a power-of-two ring that grows with the
// population, and key k lives in list k mod ring size. A list may then hold
// several keys in append order; the scan takes the first entry whose key
// equals the one it is at. A scan that meets no such entry in a whole turn
// of the ring has seen every live node and jumps to the lowest key among
// them, so no search costs more than O(capacity) even when erases have left
// the floor far below every key.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/node_lists.hpp"

namespace webcache::cache {

class LfuCache final : public Cache {
 public:
  explicit LfuCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override { return lists_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return lists_.find(object) != nullptr;
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override { lists_.reserve_universe(universe); }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Access count of a cached object since its admission (0 if not
  /// cached). Exposed for tests.
  [[nodiscard]] std::uint64_t frequency(ObjectNum object) const;

  /// Current aging inflation L (0 until the first eviction).
  [[nodiscard]] std::uint64_t aging_floor() const { return aging_floor_; }

 private:
  struct Entry {
    std::uint64_t key = 0;   ///< eviction key: freq + the aging floor at the last access
    std::uint64_t freq = 0;  ///< access count since admission
  };
  using Lists = NodeLists<Entry>;

  /// Sets `at`'s key and appends it to the tail of that key's ring slot.
  void place(std::uint32_t at, std::uint64_t key);
  /// Doubles the ring, splitting each slot in order of its entries.
  void grow_ring();
  /// Node holding the minimum (key, recency). Precondition: size() > 0.
  [[nodiscard]] std::uint32_t victim() const;

  std::uint64_t aging_floor_ = 0;
  Lists lists_;  ///< one list per ring slot; power-of-two count, at least size()
};

}  // namespace webcache::cache
