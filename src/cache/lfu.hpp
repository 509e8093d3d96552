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
// O(1) per operation, with no heap: one intrusive FIFO list per live key.
// The lists are exact for two reasons.
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
// the lists hang off a power-of-two ring of heads that grows with the
// population, and key k lives in slot k mod ring size. A slot may then hold
// several keys in append order; the scan takes the first entry whose key
// equals the one it is at. A scan that meets no such entry in a whole turn
// of the ring has seen every live node and jumps to the lowest key among
// them, so no search costs more than O(capacity) even when erases have left
// the floor far below every key.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/object_index.hpp"

namespace webcache::cache {

class LfuCache final : public Cache {
 public:
  explicit LfuCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override { return size_; }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return index_.find(object) != nullptr;
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override { index_.reserve_universe(universe); }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Access count of a cached object since its admission (0 if not
  /// cached). Exposed for tests.
  [[nodiscard]] std::uint64_t frequency(ObjectNum object) const;

  /// Current aging inflation L (0 until the first eviction).
  [[nodiscard]] std::uint64_t aging_floor() const { return aging_floor_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Aligned so no node straddles two cache lines.
  struct alignas(32) Node {
    std::uint64_t key = 0;   ///< eviction key: freq + the aging floor at the last access
    std::uint64_t freq = 0;  ///< access count since admission
    ObjectNum object = 0;
    std::uint32_t prev = kNil;  ///< neighbours in the key's ring slot
    std::uint32_t next = kNil;  ///< (next also links the free nodes)
  };
  /// The entries whose key maps to this slot, oldest (re)key first.
  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Sets `at`'s key and appends it to the tail of that key's slot.
  void place(std::uint32_t at, std::uint64_t key);
  void unlink(std::uint32_t at);
  /// Doubles the ring, splitting each slot in order of its entries.
  void grow_ring();
  [[nodiscard]] Slot& slot_of(std::uint64_t key) { return ring_[key & (ring_.size() - 1)]; }
  /// Node holding the minimum (key, recency). Precondition: size_ > 0.
  [[nodiscard]] std::uint32_t victim() const;

  std::uint64_t aging_floor_ = 0;
  std::size_t size_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;  ///< head of the free-node chain
  std::vector<Slot> ring_;     ///< power-of-two size, at least size_
  ObjectIndex index_;          ///< object -> index into nodes_
};

}  // namespace webcache::cache
