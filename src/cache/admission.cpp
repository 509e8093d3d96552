#include "cache/admission.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace webcache::cache {

namespace {

/// ~8 sketch and doorkeeper counters per cached object; the floor keeps
/// tiny client caches (capacity < 8) from degenerating to an always-full
/// filter.
std::size_t filter_cells(std::size_t capacity) {
  return std::max<std::size_t>(64, capacity * 8);
}

}  // namespace

AdmissionFilter::AdmissionFilter(std::size_t capacity)
    : sketch_(filter_cells(capacity), 4U),
      doorkeeper_(filter_cells(capacity), 3U),
      sample_period_(std::max<std::uint64_t>(64, 10 * capacity)) {}

Uint128 AdmissionFilter::key_of(ObjectNum object) {
  const auto z = static_cast<std::uint64_t>(object);
  return {SplitMix64(z).next(), SplitMix64(~z).next()};
}

bool AdmissionFilter::record_access(ObjectNum object) {
  const Uint128 key = key_of(object);
  // The doorkeeper absorbs first references: the sketch only counts repeat
  // traffic, so one-timers never consume its 4-bit dynamic range.
  if (!doorkeeper_.may_contain(key)) {
    doorkeeper_.insert(key);
  } else {
    sketch_.insert(key);
  }
  if (++ops_ >= sample_period_) {
    sketch_.halve();
    doorkeeper_.clear();
    ops_ = 0;
    ++halvings_;
    if (halvings_counter_ != nullptr) halvings_counter_->inc();
    return true;
  }
  return false;
}

unsigned AdmissionFilter::estimate(ObjectNum object) const {
  const Uint128 key = key_of(object);
  unsigned estimate = sketch_.estimate(key);
  if (doorkeeper_.may_contain(key)) ++estimate;
  return estimate;
}

bool AdmissionFilter::consider(ObjectNum candidate, std::optional<ObjectNum> victim) {
  const bool admitted = !victim.has_value() || admit(candidate, *victim);
  for (obs::Counter* counter : {considered_, admitted ? accepts_ : rejects_}) {
    if (counter != nullptr) counter->inc();
  }
  return admitted;
}

void AdmissionFilter::bind_observability(obs::Registry& registry, const std::string& prefix) {
  considered_ = &registry.counter(prefix + "admission_considered");
  accepts_ = &registry.counter(prefix + "admission_accepts");
  rejects_ = &registry.counter(prefix + "admission_rejects");
  halvings_counter_ = &registry.counter(prefix + "sketch_halvings");
}

AdmittedCache::AdmittedCache(std::unique_ptr<Cache> inner)
    : Cache(inner->capacity()), filter_(inner->capacity()), inner_(std::move(inner)) {}

// The contract is checked before the filter records the reference, so a
// rejected call leaves the sketch as it was.
void AdmittedCache::access(ObjectNum object, double cost) {
  if (!inner_->contains(object)) {
    throw std::logic_error("AdmittedCache::access: object not cached");
  }
  filter_.record_access(object);
  obs_hit();
  inner_->access(object, cost);
}

InsertResult AdmittedCache::insert(ObjectNum object, double cost) {
  if (inner_->contains(object)) {
    throw std::logic_error("AdmittedCache::insert: object already cached");
  }
  filter_.record_access(object);
  if (capacity_ == 0) return {};
  if (!filter_.consider(object, inner_->full() ? inner_->peek_victim() : std::nullopt)) {
    obs_declined();
    return {};
  }
  InsertResult result = inner_->insert(object, cost);
  if (result.inserted) obs_inserted();
  if (result.evicted.has_value()) obs_evicted();
  if (!result.inserted) obs_declined();
  return result;
}

}  // namespace webcache::cache
