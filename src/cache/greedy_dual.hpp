// Greedy-dual replacement (N. Young, "On-line file caching", SODA 1998).
//
// Hier-GD runs this policy at the proxy *and* inside every client cache.
// Each cached object carries a credit H initialized to its retrieval cost;
// eviction removes the minimum-H object and conceptually deducts that
// minimum from every remaining object's credit; a hit restores the object's
// credit to its cost. Korupolu & Dahlin observed that greedy-dual gives
// *implicit* coordination between cooperating caches — cheap-to-refetch
// objects (available from a nearby cache) are evicted before expensive ones
// — which is the property Hier-GD builds on.
//
// This is the "efficient implementation" the paper cites: instead of
// decrementing every credit on each eviction (O(n)), a global inflation
// value L accumulates the deducted minima, credits are stored as H + L at
// the time they were set, and comparisons remain consistent.
//
// O(1) per operation: L never decreases and costs are >= 0, so entries that
// share a cost were given non-decreasing credits (cost + L) in the order
// they were set. One FIFO list of the shared list store
// (cache/node_lists.hpp) per distinct cost is therefore already sorted by
// (credit, seq), and the victim is the smallest list head. A simulator run
// passes a handful of distinct costs (the latency model's fetch levels plus
// the 0 re-key of a P2P fetch), so a linear scan over the list heads finds
// it.
//
// With one constant cost the policy is exactly LRU, which is how LruCache
// (cache/lru.hpp) runs on it. All entries share one list, and since L never
// decreases, an entry set later never has a lower credit: the (credit, seq)
// order is the order of last use, and the list's head is the least recently
// used entry. At cost 0 every credit and L itself stay 0.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/node_lists.hpp"

namespace webcache::cache {

class GreedyDualCache : public Cache {
 public:
  explicit GreedyDualCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override { return lists_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return lists_.find(object) != nullptr;
  }

  /// On a hit, the object's credit resets to `cost` (plus inflation).
  /// Throws std::logic_error when `object` is not cached and
  /// std::invalid_argument when `cost` is negative or NaN.
  void access(ObjectNum object, double cost) override;

  /// Inserts with credit = `cost` (plus inflation), evicting the minimum-
  /// credit object when full. Throws std::logic_error when `object` is
  /// already cached and std::invalid_argument when `cost` is negative or NaN.
  InsertResult insert(ObjectNum object, double cost) override;

  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override { lists_.reserve_universe(universe); }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Current (deflated) credit of a cached object: H as the textbook
  /// algorithm defines it. Exposed for the brute-force equivalence tests.
  [[nodiscard]] double credit(ObjectNum object) const;

  /// Accumulated inflation L (sum of eviction minima).
  [[nodiscard]] double inflation() const { return inflation_; }

 private:
  // (credit, seq) is the eviction key; seq is unique per entry, so the order
  // is total — identical to the historical std::set<tuple<credit, seq,
  // object>> victim order.
  struct Entry {
    double credit = 0.0;    ///< cost + inflation when last set
    std::uint64_t seq = 0;  ///< when last set
  };
  using Lists = NodeLists<Entry>;

  /// Sets the unlinked node `at`'s credit for `cost` and appends it to that
  /// cost's list.
  void place(std::uint32_t at, double cost);
  /// Node holding the minimum (credit, seq). Precondition: size() > 0.
  [[nodiscard]] std::uint32_t victim() const;

  double inflation_ = 0.0;
  std::uint64_t seq_ = 0;
  Lists lists_;  ///< list l holds the entries of cost costs_[l], oldest first
  /// The cost of each list. An emptied list keeps its slot and is reused for
  /// the next new cost.
  std::vector<double> costs_;
};

}  // namespace webcache::cache
