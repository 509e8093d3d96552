// Replacement-policy cache interface.
//
// Every cache in the system — proxy caches, the pooled "ideal" P2P cache of
// the *-EC upper-bound schemes, and each individual client cache under
// Hier-GD — is a fixed-capacity store of unit-size objects behind this
// interface, so schemes differ only in which policy they instantiate and how
// caches are wired together.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"

namespace webcache::cache {

/// Result of attempting to insert an object.
struct InsertResult {
  /// False when the policy declined to cache the object (cost-benefit does
  /// this when the newcomer is worth less than the cheapest incumbent).
  bool inserted = false;
  /// Object evicted to make room, when one was.
  std::optional<ObjectNum> evicted;
};

/// Abstract fixed-capacity cache of unit-size objects.
///
/// Contract:
///  * size() <= capacity() at all times;
///  * access() must only be called for objects currently cached;
///  * insert() must only be called for objects not currently cached;
///  * `cost` is the retrieval latency the caller paid (or would pay) to
///    fetch the object; value-based policies (greedy-dual, cost-benefit)
///    use it, recency/frequency policies ignore it.
class Cache {
 public:
  explicit Cache(std::size_t capacity) : capacity_(capacity) {}
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool full() const { return size() >= capacity_; }
  [[nodiscard]] virtual bool contains(ObjectNum object) const = 0;

  /// Records a hit on a cached object (recency/frequency/value bookkeeping).
  virtual void access(ObjectNum object, double cost) = 0;

  /// Offers an uncached object for insertion.
  virtual InsertResult insert(ObjectNum object, double cost) = 0;

  /// Removes a specific object (e.g. invalidation). Returns true if present.
  virtual bool erase(ObjectNum object) = 0;

  /// Hint that object ids are dense in [0, universe) and this cache may hold
  /// a universe-scale population (proxy caches). Policies may preallocate
  /// direct-indexed structures; per-client caches should NOT receive this
  /// hint — a universe-sized array per client would defeat the point.
  virtual void reserve_universe(std::size_t /*universe*/) {}

  /// The object the policy would evict next, if the cache is non-empty.
  [[nodiscard]] virtual std::optional<ObjectNum> peek_victim() const = 0;

  /// Snapshot of cached objects in unspecified order (directories, tests).
  [[nodiscard]] virtual std::vector<ObjectNum> contents() const = 0;

  /// Binds policy-level counters (`<prefix>hits`, `<prefix>insertions`,
  /// `<prefix>evictions`, `<prefix>declined`) into `registry`. Multiple
  /// caches may bind the same prefix to aggregate (e.g. the per-client
  /// caches of one cluster). Unbound caches pay one null check per
  /// operation.
  void bind_observability(obs::Registry& registry, const std::string& prefix) {
    obs_hits_ = &registry.counter(prefix + "hits");
    obs_insertions_ = &registry.counter(prefix + "insertions");
    obs_evictions_ = &registry.counter(prefix + "evictions");
    obs_declined_ = &registry.counter(prefix + "declined");
    bind_policy_observability(registry, prefix);
  }

 protected:
  /// Policies with instruments beyond the four standard counters (the
  /// TinyLFU admission sketch, ARC's adaptation state) bind them here, under
  /// the `<prefix>policy.` namespace (see scripts/check_metrics_schema.py).
  virtual void bind_policy_observability(obs::Registry& /*registry*/,
                                         const std::string& /*prefix*/) {}

  /// Policies call these from access()/insert(); no-ops until bound.
  void obs_hit() {
    if (obs_hits_ != nullptr) obs_hits_->inc();
  }
  void obs_inserted() {
    if (obs_insertions_ != nullptr) obs_insertions_->inc();
  }
  void obs_evicted() {
    if (obs_evictions_ != nullptr) obs_evictions_->inc();
  }
  void obs_declined() {
    if (obs_declined_ != nullptr) obs_declined_->inc();
  }

  std::size_t capacity_;

 private:
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_insertions_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_declined_ = nullptr;
};

}  // namespace webcache::cache
