// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).
//
// Four LRU lists of the shared list store (cache/node_lists.hpp), one node
// per cached or ghost object: T1 (seen once, recency) and T2 (seen twice+,
// frequency) hold the cached objects; B1 and B2 are equal-depth ghost lists
// remembering recent evictions from each. A hit on a B1 ghost means recency is being
// undervalued, so the adaptation target `p` (T1's share of capacity) grows;
// a B2 ghost hit shrinks it. The cache thereby tunes itself between LRU-like
// and LFU-like behaviour per workload, with no tunables.
//
// Mapped onto the Cache contract: access() covers T1/T2 hits; ghost hits
// arrive through insert() (the object is not cached, so the simulator
// re-fetches it and offers it back). erase() drops cached objects (returning
// true) and silently forgets ghosts (returning false) so churn/invalidation
// can never resurrect stale adaptation state.
#pragma once

#include <cstdint>

#include "cache/cache.hpp"
#include "cache/node_lists.hpp"

namespace webcache::cache {

class ArcCache final : public Cache {
 public:
  explicit ArcCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override {
    return lists_.list(kT1).size + lists_.list(kT2).size;
  }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    const std::uint32_t* at = lists_.find(object);
    return at != nullptr && cached(*at);
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override { lists_.reserve_universe(universe); }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Adaptation target: the capacity share currently granted to the recency
  /// list T1 (0 = pure frequency, capacity() = pure recency).
  [[nodiscard]] std::size_t target_p() const { return p_; }
  [[nodiscard]] std::uint64_t ghost_hits_b1() const { return ghost_hits_b1_; }
  [[nodiscard]] std::uint64_t ghost_hits_b2() const { return ghost_hits_b2_; }
  [[nodiscard]] std::size_t ghost_size() const {
    return lists_.list(kB1).size + lists_.list(kB2).size;
  }

 protected:
  void bind_policy_observability(obs::Registry& registry, const std::string& prefix) override;

 private:
  struct Entry {};
  using Lists = NodeLists<Entry, /*kCounted=*/true>;  // decisions read list sizes
  /// List numbers in the store; each list runs LRU (head) to MRU (tail).
  enum : std::uint32_t { kT1, kT2, kB1, kB2 };

  /// True when node `at` holds a cached object, not a ghost.
  [[nodiscard]] bool cached(std::uint32_t at) const { return lists_.node(at).list <= kT2; }
  /// The REPLACE step: demotes the T1 or T2 LRU (per `p_` and the requesting
  /// ghost list) into the matching ghost list; returns the demoted object.
  ObjectNum replace(bool hit_in_b2);
  void set_p(std::size_t p);

  Lists lists_{4};  // cached AND ghost entries
  std::size_t p_ = 0;
  std::uint64_t ghost_hits_b1_ = 0;
  std::uint64_t ghost_hits_b2_ = 0;

  obs::Counter* policy_ghost_b1_ = nullptr;
  obs::Counter* policy_ghost_b2_ = nullptr;
  obs::Gauge* policy_p_ = nullptr;
};

}  // namespace webcache::cache
