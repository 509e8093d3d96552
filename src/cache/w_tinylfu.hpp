// W-TinyLFU (Einziger, Friedman & Manes, ACM ToS 2017): a small LRU window
// in front of a Segmented-LRU main region, with the TinyLFU frequency sketch
// deciding which window evictee may displace the main region's probation
// victim.
//
// The window (~1% of capacity) gives new objects a recency-driven grace
// period, so bursts of genuinely new hot objects are not starved by the
// frequency filter; the SLRU main region (80% protected / 20% probation)
// holds the long-term frequent set. The three segments are LRU lists of the
// shared list store (cache/node_lists.hpp). Every reference feeds the
// admission sketch, whose periodic halving is keyed to the cache's own
// operation count — deterministic per the contract in admission.hpp — and
// the filter counts each duel.
#pragma once

#include <cstdint>

#include "cache/admission.hpp"
#include "cache/cache.hpp"
#include "cache/node_lists.hpp"

namespace webcache::cache {

class WTinyLfuCache final : public Cache {
 public:
  explicit WTinyLfuCache(std::size_t capacity);

  [[nodiscard]] std::size_t size() const override { return lists_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return lists_.find(object) != nullptr;
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override { lists_.reserve_universe(universe); }

  /// The zero-knowledge outcome of the next insert's eviction cascade: the
  /// window LRU's duel against the probation victim depends on sketch state,
  /// so this reports the probation (else protected, else window) LRU — the
  /// object a frequency-blind duel would evict.
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  [[nodiscard]] const AdmissionFilter& filter() const { return filter_; }

 protected:
  void bind_policy_observability(obs::Registry& registry, const std::string& prefix) override {
    filter_.bind_observability(registry, prefix + "policy.");
  }

 private:
  struct Entry {};
  using Lists = NodeLists<Entry, /*kCounted=*/true>;  // decisions read list sizes
  /// Segment numbers in the store; each runs LRU (head) to MRU (tail).
  enum : std::uint32_t { kWindow, kProbation, kProtected };

  AdmissionFilter filter_;
  std::size_t window_cap_;
  std::size_t protected_cap_;
  Lists lists_{3};
};

}  // namespace webcache::cache
