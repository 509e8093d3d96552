// Least-Frequently-Used cache.
//
// NC, SC, NC-EC and SC-EC use LFU replacement in the paper. Three variants
// are provided, following the taxonomy of Breslau et al. (INFOCOM'99) and
// the web-caching practice of the paper's era:
//   * kInCache — frequency counts exist only while an object is cached and
//     are forgotten on eviction; pure frequency order.
//   * kPerfect — counts persist across evictions ("Perfect LFU"), so a
//     frequently re-fetched object re-enters the cache with its history.
//   * kDynamicAging — LFU-DA (Arlitt et al., "Evaluating content management
//     techniques for Web proxy caches"): eviction key = count + L, where L
//     inflates to each eviction victim's key. Aging lets the cache shed
//     formerly-hot objects and track the current working set — the behaviour
//     deployed "LFU" web caches of the period actually had, and the variant
//     that responds to temporal locality (pure LFU provably cannot when the
//     popularity marginal is fixed). This is the default.
// Ties are broken toward the least recently used object.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/eviction_heap.hpp"
#include "common/dense_map.hpp"

namespace webcache::cache {

enum class LfuMode {
  kInCache,       ///< counts reset on eviction
  kPerfect,       ///< counts persist for the full run
  kDynamicAging,  ///< LFU-DA: count + inflation key (web-proxy practice)
};

class LfuCache final : public Cache {
 public:
  explicit LfuCache(std::size_t capacity, LfuMode mode = LfuMode::kDynamicAging)
      : Cache(capacity), mode_(mode) {}

  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return entries_.contains(object);
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override {
    order_.reserve_universe(universe);
  }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Frequency currently attributed to an object (0 if unknown). Exposed for
  /// tests and the workload analyzer.
  [[nodiscard]] std::uint64_t frequency(ObjectNum object) const;

  [[nodiscard]] LfuMode mode() const { return mode_; }

  /// Current aging inflation L (0 unless kDynamicAging has evicted).
  [[nodiscard]] std::uint64_t aging_floor() const { return aging_floor_; }

 private:
  struct Entry {
    std::uint64_t freq = 0;  ///< observed access count
    std::uint64_t key = 0;   ///< eviction key: freq (+ aging floor in kDynamicAging)
    std::uint64_t last_seq = 0;
  };
  // Ordered by (key, recency): the heap minimum is the eviction victim, with
  // the least recent access breaking key ties. last_seq is unique per entry,
  // so the order is total and matches the historical std::set<tuple> order.
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  [[nodiscard]] static Key key_of(const Entry& e) { return {e.key, e.last_seq}; }

  LfuMode mode_;
  std::uint64_t seq_ = 0;
  std::uint64_t aging_floor_ = 0;
  EvictionHeap<Key> order_;
  FlatMap<Entry> entries_;
  // Persistent counts for kPerfect mode (also counts accesses to objects
  // made while cached, so the count is the true observed frequency), indexed
  // directly by the dense object id.
  std::vector<std::uint64_t> history_;

  std::uint64_t& history_slot(ObjectNum object) {
    if (object >= history_.size()) history_.resize(static_cast<std::size_t>(object) + 1, 0);
    return history_[object];
  }
};

}  // namespace webcache::cache
