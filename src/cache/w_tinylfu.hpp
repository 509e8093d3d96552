// W-TinyLFU (Einziger, Friedman & Manes, ACM ToS 2017): a small LRU window
// in front of a Segmented-LRU main region, with the TinyLFU frequency sketch
// deciding which window evictee may displace the main region's probation
// victim.
//
// The window (~1% of capacity) gives new objects a recency-driven grace
// period, so bursts of genuinely new hot objects are not starved by the
// frequency filter; the SLRU main region (80% protected / 20% probation)
// holds the long-term frequent set. Every reference feeds the shared
// admission sketch, whose periodic halving is keyed to the cache's own
// operation count — deterministic per the contract in admission.hpp.
#pragma once

#include <cstdint>
#include <list>

#include "cache/admission.hpp"
#include "cache/cache.hpp"
#include "common/dense_map.hpp"

namespace webcache::cache {

class WTinyLfuCache final : public Cache {
 public:
  explicit WTinyLfuCache(std::size_t capacity);

  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return index_.contains(object);
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override;

  /// The zero-knowledge outcome of the next insert's eviction cascade: the
  /// window LRU's duel against the probation victim depends on sketch state,
  /// so this reports the probation (else protected, else window) LRU — the
  /// object a frequency-blind duel would evict.
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  [[nodiscard]] const AdmissionFilter& filter() const { return filter_; }

 protected:
  void bind_policy_observability(obs::Registry& registry,
                                 const std::string& prefix) override;

 private:
  enum class Segment : std::uint8_t { kWindow, kProbation, kProtected };

  struct Entry {
    std::list<ObjectNum>::iterator pos{};
    Segment segment = Segment::kWindow;
  };

  [[nodiscard]] std::list<ObjectNum>& list_of(Segment segment) {
    switch (segment) {
      case Segment::kWindow: return window_;
      case Segment::kProbation: return probation_;
      case Segment::kProtected: return protected_;
    }
    return window_;  // unreachable
  }

  /// Removes `object` from its segment list and the index.
  void drop(ObjectNum object, const Entry& entry);
  void note_sampled(bool halved) {
    if (halved && policy_halvings_ != nullptr) policy_halvings_->inc();
  }

  AdmissionFilter filter_;
  std::size_t window_cap_;
  std::size_t protected_cap_;
  // Front = most recently used in every segment.
  std::list<ObjectNum> window_;
  std::list<ObjectNum> probation_;
  std::list<ObjectNum> protected_;
  FlatMap<Entry> index_;

  obs::Counter* policy_considered_ = nullptr;
  obs::Counter* policy_accepts_ = nullptr;
  obs::Counter* policy_rejects_ = nullptr;
  obs::Counter* policy_halvings_ = nullptr;
};

}  // namespace webcache::cache
