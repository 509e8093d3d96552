// TinyLFU-style admission (Einziger, Friedman & Manes, "TinyLFU: A Highly
// Efficient Cache Admission Policy", ACM ToS 2017).
//
// The paper's schemes admit every fetched object unconditionally; under
// scan/one-timer-heavy workloads that lets worthless objects flush valuable
// residents. TinyLFU keeps an approximate frequency histogram of the recent
// request stream — here the existing Summary-Cache counting Bloom from
// src/bloom used as a count-min sketch, fronted by a doorkeeper that absorbs
// the one-hit-wonder mass — and admits a candidate only when its estimated
// frequency beats the incumbent victim's. The doorkeeper is a second counting
// Bloom that is only inserted into and cleared, so it answers as a plain
// (bit-array) Bloom filter would. A periodic halving of every sketch counter
// (the "reset" aging step) keeps the histogram tracking the recent window;
// it is keyed to the filter's own operation count, which under both the
// sequential and the sharded engine is a deterministic function of the
// cache's request subsequence, so all exports stay byte-identical across
// threads, shards, and streamed or in-memory replay. The filter also counts
// its own decisions, for AdmittedCache and W-TinyLFU alike: every consider()
// and every halving.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bloom/counting_bloom.hpp"
#include "cache/cache.hpp"

namespace webcache::cache {

/// Approximate frequency histogram of the recent request stream with a
/// TinyLFU admission duel. Sized from the cache capacity it fronts: the
/// sketch and the doorkeeper each carry ~8 counters per cached object, and
/// one sample period spans 10x the capacity in references.
class AdmissionFilter {
 public:
  explicit AdmissionFilter(std::size_t capacity);

  /// Records one reference (hit or insertion offer). Returns true when this
  /// reference triggered the periodic halving/reset aging step, which
  /// `sketch_halvings` counts.
  bool record_access(ObjectNum object);

  /// Estimated reference count within the current sample window: the sketch's
  /// count-min estimate plus one when the doorkeeper holds the object.
  [[nodiscard]] unsigned estimate(ObjectNum object) const;

  /// The admission duel: cache the candidate only when its estimated
  /// frequency strictly exceeds the victim's (ties keep the incumbent, the
  /// bias that blocks scan floods).
  [[nodiscard]] bool admit(ObjectNum candidate, ObjectNum victim) const {
    return estimate(candidate) > estimate(victim);
  }

  /// One counted admission decision: the duel against `victim`, or a free
  /// admit when there is none. Counts `admission_considered` and one of
  /// `admission_accepts` or `admission_rejects`.
  bool consider(ObjectNum candidate, std::optional<ObjectNum> victim);

  /// Binds `<prefix>admission_considered`, `<prefix>admission_accepts`,
  /// `<prefix>admission_rejects` and `<prefix>sketch_halvings`.
  void bind_observability(obs::Registry& registry, const std::string& prefix);

  [[nodiscard]] std::uint64_t halvings() const { return halvings_; }
  [[nodiscard]] std::uint64_t sample_period() const { return sample_period_; }

 private:
  /// ObjectNum -> uniformly distributed 128-bit key for the bloom probes
  /// (SplitMix64 finalizer per limb; dense ids are NOT uniform).
  static Uint128 key_of(ObjectNum object);

  bloom::CountingBloomFilter sketch_;
  bloom::CountingBloomFilter doorkeeper_;
  std::uint64_t sample_period_;
  std::uint64_t ops_ = 0;
  std::uint64_t halvings_ = 0;

  obs::Counter* considered_ = nullptr;
  obs::Counter* accepts_ = nullptr;
  obs::Counter* rejects_ = nullptr;
  obs::Counter* halvings_counter_ = nullptr;
};

/// Fronts any replacement policy with TinyLFU admission: an insert offered to
/// a full inner cache first duels the inner policy's own victim and is
/// declined (InsertResult{false}) when it loses. The inner cache keeps full
/// control of eviction order; only WHETHER a newcomer displaces anything
/// changes. The filter's instruments bind under `<prefix>policy.`.
class AdmittedCache final : public Cache {
 public:
  explicit AdmittedCache(std::unique_ptr<Cache> inner);

  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override { return inner_->contains(object); }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override { return inner_->erase(object); }
  void reserve_universe(std::size_t universe) override { inner_->reserve_universe(universe); }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override {
    return inner_->peek_victim();
  }
  [[nodiscard]] std::vector<ObjectNum> contents() const override { return inner_->contents(); }

 protected:
  void bind_policy_observability(obs::Registry& registry, const std::string& prefix) override {
    filter_.bind_observability(registry, prefix + "policy.");
  }

 private:
  AdmissionFilter filter_;
  std::unique_ptr<Cache> inner_;
};

}  // namespace webcache::cache
