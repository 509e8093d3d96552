// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).
//
// Four LRU lists: T1 (seen once, recency) and T2 (seen twice+, frequency)
// hold the cached objects; B1 and B2 are equal-depth ghost lists remembering
// recent evictions from each. A hit on a B1 ghost means recency is being
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
#include <list>

#include "cache/cache.hpp"
#include "common/dense_map.hpp"

namespace webcache::cache {

class ArcCache final : public Cache {
 public:
  explicit ArcCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override { return t1_.size() + t2_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override;

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override;
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Adaptation target: the capacity share currently granted to the recency
  /// list T1 (0 = pure frequency, capacity() = pure recency).
  [[nodiscard]] std::size_t target_p() const { return p_; }
  [[nodiscard]] std::uint64_t ghost_hits_b1() const { return ghost_hits_b1_; }
  [[nodiscard]] std::uint64_t ghost_hits_b2() const { return ghost_hits_b2_; }
  [[nodiscard]] std::size_t ghost_size() const { return b1_.size() + b2_.size(); }

 protected:
  void bind_policy_observability(obs::Registry& registry,
                                 const std::string& prefix) override;

 private:
  enum class ListId : std::uint8_t { kT1, kT2, kB1, kB2 };

  struct Entry {
    std::list<ObjectNum>::iterator pos{};
    ListId where = ListId::kT1;
  };

  [[nodiscard]] std::list<ObjectNum>& list_of(ListId id) {
    switch (id) {
      case ListId::kT1: return t1_;
      case ListId::kT2: return t2_;
      case ListId::kB1: return b1_;
      case ListId::kB2: return b2_;
    }
    return t1_;  // unreachable
  }

  /// The REPLACE step: demotes the T1 or T2 LRU (per `p_` and the requesting
  /// ghost list) into the matching ghost list; returns the demoted object.
  ObjectNum replace(bool hit_in_b2);
  /// Removes the LRU entry of ghost list `id` from the list and the index.
  void drop_ghost_lru(ListId id);
  void set_p(std::size_t p);

  std::list<ObjectNum> t1_, t2_, b1_, b2_;  // front = MRU
  FlatMap<Entry> index_;                    // cached AND ghost entries
  std::size_t p_ = 0;
  std::uint64_t ghost_hits_b1_ = 0;
  std::uint64_t ghost_hits_b2_ = 0;

  obs::Counter* policy_ghost_b1_ = nullptr;
  obs::Counter* policy_ghost_b2_ = nullptr;
  obs::Gauge* policy_p_ = nullptr;
};

}  // namespace webcache::cache
