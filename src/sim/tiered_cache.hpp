// Two-tier unified cache: tier 1 models the proxy cache (hits cost Tl),
// tier 2 the pooled P2P client cache (hits cost Tp2p). The *-EC upper-bound
// schemes treat a proxy and its P2P client cache as "one unified cache"
// (paper Section 2) with this structure:
//   * a miss fill is admitted into tier 1; tier 1's eviction is destaged
//     into tier 2; tier 2's eviction leaves the unified cache;
//   * a tier 2 hit promotes the object back into tier 1 (its destaged
//     evictee takes the promoted object's slot below, so occupancy is
//     conserved);
// which is exactly Hier-GD's shape with an idealized single-cache bottom
// tier — making the ideal-vs-Pastry comparison an apples-to-apples ablation.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "cache/cache.hpp"
#include "common/dense_map.hpp"
#include "obs/registry.hpp"

namespace webcache::sim {

class TieredCache {
 public:
  enum class Where { kTier1, kTier2, kMiss };

  /// Takes ownership of both tiers (either may have zero capacity).
  TieredCache(std::unique_ptr<cache::Cache> tier1, std::unique_ptr<cache::Cache> tier2);

  /// Pure lookup, no bookkeeping.
  [[nodiscard]] Where locate(ObjectNum object) const;
  [[nodiscard]] bool contains(ObjectNum object) const {
    return locate(object) != Where::kMiss;
  }

  /// Serves a local request for a cached object: tier-1 hits refresh in
  /// place, tier-2 hits promote into tier 1 (destaging tier 1's evictee
  /// down). Returns where the object was found. `cost` is the object's
  /// refetch cost (greedy-dual credit). access(), refresh() and admit()
  /// throw std::invalid_argument on a NaN cost before touching either tier.
  Where access(ObjectNum object, double cost);

  /// Serves a *remote* request (another proxy reading through us): the
  /// object is refreshed where it sits, without promotion — remote traffic
  /// should not reorganize the local hierarchy.
  Where refresh(ObjectNum object, double cost);

  /// Admits an object after a miss fill: inserts into tier 1, destages the
  /// evictee to tier 2. Returns false if the policy declined admission.
  bool admit(ObjectNum object, double cost);

  [[nodiscard]] cache::Cache& tier1() { return *tier1_; }
  [[nodiscard]] cache::Cache& tier2() { return *tier2_; }
  [[nodiscard]] const cache::Cache& tier1() const { return *tier1_; }
  [[nodiscard]] const cache::Cache& tier2() const { return *tier2_; }

  /// Forwards the dense-universe hint to both tiers and the cost index.
  void reserve_universe(std::size_t universe) {
    tier1_->reserve_universe(universe);
    tier2_->reserve_universe(universe);
    cost_.reserve(universe);
  }

  [[nodiscard]] std::size_t size() const { return tier1_->size() + tier2_->size(); }
  [[nodiscard]] std::size_t capacity() const {
    return tier1_->capacity() + tier2_->capacity();
  }

  /// Observer for membership transitions: invoked with an object's new
  /// location whenever it enters a tier, moves between tiers, or leaves the
  /// unified cache (kMiss). The simulator's cluster residency index hangs off
  /// this; lookups (locate/refresh) never fire it.
  using TransitionHook = std::function<void(ObjectNum, Where)>;
  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  /// Registers the unified-cache movement counters (`<prefix>tier1_hits`,
  /// `tier2_hits`, `promotions`, `destages`, `admissions`, `declines`,
  /// `departures`) in `registry`. Also binds both tiers' policy counters
  /// under `<prefix>tier1.` / `<prefix>tier2.`. Optional: an unbound
  /// TieredCache simply skips the accounting.
  void bind_observability(obs::Registry& registry, const std::string& prefix);

 private:
  void notify(ObjectNum object, Where now) {
    if (hook_) hook_(object, now);
  }

  struct Counters {
    Counters(obs::Registry& registry, const std::string& prefix)
        : tier1_hits(registry.counter(prefix + "tier1_hits")),
          tier2_hits(registry.counter(prefix + "tier2_hits")),
          promotions(registry.counter(prefix + "promotions")),
          destages(registry.counter(prefix + "destages")),
          admissions(registry.counter(prefix + "admissions")),
          declines(registry.counter(prefix + "declines")),
          departures(registry.counter(prefix + "departures")) {}
    obs::Counter& tier1_hits;   ///< access()/refresh() found it in tier 1
    obs::Counter& tier2_hits;   ///< access()/refresh() found it in tier 2
    obs::Counter& promotions;   ///< tier-2 hit moved the object up
    obs::Counter& destages;     ///< tier-1 evictee moved down into tier 2
    obs::Counter& admissions;   ///< miss fill accepted into tier 1
    obs::Counter& declines;     ///< miss fill rejected by the tier-1 policy
    obs::Counter& departures;   ///< object left the unified cache entirely
  };

  /// Moves tier 1's eviction victim down into tier 2.
  void destage(ObjectNum object);
  /// Records that `object` left the unified cache entirely.
  void depart(ObjectNum object);

  std::unique_ptr<cache::Cache> tier1_;
  std::unique_ptr<cache::Cache> tier2_;
  TransitionHook hook_;
  std::unique_ptr<Counters> counters_;  ///< null until bind_observability
  /// Refetch cost of every object currently cached — needed to credit
  /// destaged objects correctly in value-based tiers. Direct-indexed by the
  /// dense object id (grows to the largest id seen), 8 bytes per object:
  /// NaN marks an uncached one.
  DenseMap<double> cost_;
};

}  // namespace webcache::sim
