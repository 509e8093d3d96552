// Coordinated cost-benefit replacement (after Lee, Sahu, Amiri &
// Venkatramani, IBM Research Report 2001).
//
// FC and FC-EC use this policy: the proxies of a cluster coordinate
// replacement to minimize the aggregate average latency of all clients,
// assuming perfect knowledge of per-object access frequencies. The value of
// a cached *copy* depends on how many replicas the cluster holds:
//
//   * the only copy in the cluster: evicting it forces every proxy to the
//     origin server — value = f * (Ts + (P-1) * (Ts - Tc)) where f is the
//     per-proxy access frequency of the object and P the cluster size;
//   * one of several copies: evicting it only costs the local clients the
//     proxy-to-proxy latency — value = f * Tc.
//
// A proxy inserts a fetched object only when the newcomer's value exceeds
// the cluster-wide cheapest cached copy *in its own cache* (capacity is per
// proxy); this avoids duplicating moderately popular objects, which is
// exactly the coordination advantage FC has over SC. Replica-count
// transitions (2 -> 1 and 1 -> 2) re-price the surviving/other copy, and the
// coordinator keeps every member cache's priority structure consistent.
//
// "Perfect frequency knowledge" is knowledge of the *future*: the driver
// reports every request via consume(), which decrements the object's
// remaining frequency and re-prices its cached copies. An object whose
// references are exhausted decays to value 0 and is evicted first — the
// clairvoyant behaviour that makes FC/FC-EC genuine upper bounds rather
// than a static placement heuristic.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/eviction_heap.hpp"

namespace webcache::cache {

class CostBenefitCache;

/// Cluster-wide state shared by the CostBenefitCaches of one proxy cluster.
class CostBenefitCoordinator {
 public:
  /// `per_proxy_frequency[o]` is the (perfect-knowledge) number of requests
  /// for object o each proxy receives over the run; `cluster_size` is P.
  CostBenefitCoordinator(std::vector<double> per_proxy_frequency, unsigned cluster_size,
                         double server_latency, double proxy_latency);

  [[nodiscard]] double frequency(ObjectNum object) const {
    return object < frequency_.size() ? frequency_[object] : 0.0;
  }

  [[nodiscard]] unsigned cluster_size() const { return cluster_size_; }

  /// Number of replicas of `object` currently cached across the cluster.
  [[nodiscard]] unsigned replica_count(ObjectNum object) const;

  /// True if some member other than `except` holds `object`.
  [[nodiscard]] bool held_elsewhere(ObjectNum object, const CostBenefitCache* except) const;

  /// Value of a copy of `object` given it would be one of `replicas` copies.
  [[nodiscard]] double copy_value(ObjectNum object, unsigned replicas) const;

  /// Reports one request for `object`: its remaining (future) frequency
  /// drops by one cluster-wide request (1/P per proxy) and any cached
  /// copies are re-priced. Call once per request, before replacement
  /// decisions for that request.
  void consume(ObjectNum object);

 private:
  friend class CostBenefitCache;

  void on_copy_added(ObjectNum object, CostBenefitCache* cache);
  void on_copy_removed(ObjectNum object, CostBenefitCache* cache);
  void reprice_holders(ObjectNum object);

  std::vector<double> frequency_;
  unsigned cluster_size_;
  double server_latency_;
  double proxy_latency_;
  // Direct-indexed by object id (an empty vector = no cached copies). A
  // cluster holds at most P pointers per object, so the slack is tiny and
  // replica lookups become one array read.
  std::vector<std::vector<CostBenefitCache*>> holders_;

  [[nodiscard]] const std::vector<CostBenefitCache*>* find_holders(ObjectNum object) const {
    return object < holders_.size() && !holders_[object].empty() ? &holders_[object] : nullptr;
  }
};

/// One proxy's cache under coordinated cost-benefit replacement.
class CostBenefitCache final : public Cache {
 public:
  CostBenefitCache(std::size_t capacity, CostBenefitCoordinator& coordinator);
  ~CostBenefitCache() override;

  [[nodiscard]] std::size_t size() const override { return order_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return order_.contains(object);
  }

  /// Values are static (perfect frequencies), so hits need no bookkeeping.
  void access(ObjectNum object, double cost) override;

  /// Coordinated insertion: declines when the newcomer's value does not
  /// exceed the local minimum-value copy. `cost` is unused — the policy
  /// prices copies from the frequency table and cluster latencies.
  InsertResult insert(ObjectNum object, double cost) override;

  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override {
    order_.reserve_universe(universe);
  }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Current priced value of a cached copy (tests).
  [[nodiscard]] double value_of(ObjectNum object) const;

 private:
  friend class CostBenefitCoordinator;

  /// Re-prices a cached copy after a cluster replica-count transition.
  void reprice(ObjectNum object, double new_value);

  // Heap priority (value, seq) of a cached copy; the heap is the cache's
  // only index. seq is unique per entry (repricing keeps it), so the pair
  // orders distinct objects totally — identical to the historical
  // std::set<tuple<value, seq, object>> victim order.
  using Key = std::pair<double, std::uint64_t>;

  CostBenefitCoordinator& coordinator_;
  std::uint64_t seq_ = 0;
  EvictionHeap<Key> order_;
};

}  // namespace webcache::cache
