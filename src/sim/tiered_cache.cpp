#include "sim/tiered_cache.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace webcache::sim {

namespace {

/// The cost index marks an absent object with NaN, so a NaN cost could not
/// be recorded; refuse it before either tier sees it.
void check_cost(double cost, const char* what) {
  if (std::isnan(cost)) throw std::invalid_argument(what);
}

}  // namespace

TieredCache::TieredCache(std::unique_ptr<cache::Cache> tier1,
                         std::unique_ptr<cache::Cache> tier2)
    : tier1_(std::move(tier1)), tier2_(std::move(tier2)) {
  if (!tier1_ || !tier2_) {
    throw std::invalid_argument("TieredCache: both tiers required");
  }
}

TieredCache::Where TieredCache::locate(ObjectNum object) const {
  if (tier1_->contains(object)) return Where::kTier1;
  if (tier2_->contains(object)) return Where::kTier2;
  return Where::kMiss;
}

void TieredCache::bind_observability(obs::Registry& registry, const std::string& prefix) {
  counters_ = std::make_unique<Counters>(registry, prefix);
  tier1_->bind_observability(registry, prefix + "tier1.");
  tier2_->bind_observability(registry, prefix + "tier2.");
}

void TieredCache::destage(ObjectNum object) {
  const double* stored = cost_.find(object);
  const double cost = stored == nullptr ? 0.0 : *stored;
  const auto ins = tier2_->insert(object, cost);
  if (!ins.inserted) {
    depart(object);  // zero-capacity tier 2: the object leaves entirely
    return;
  }
  notify(object, Where::kTier2);
  if (counters_) counters_->destages.inc();
  if (ins.evicted) depart(*ins.evicted);
}

void TieredCache::depart(ObjectNum object) {
  cost_.erase(object);
  notify(object, Where::kMiss);
  if (counters_) counters_->departures.inc();
}

TieredCache::Where TieredCache::access(ObjectNum object, double cost) {
  check_cost(cost, "TieredCache::access: cost is NaN");
  const Where where = locate(object);
  switch (where) {
    case Where::kTier1:
      cost_.set(object, cost);
      tier1_->access(object, cost);
      if (counters_) counters_->tier1_hits.inc();
      break;
    case Where::kTier2: {
      if (counters_) counters_->tier2_hits.inc();
      // Promote: the proxy now serves and holds the object; its tier-1
      // evictee drops into the slot freed below.
      tier2_->erase(object);
      cost_.set(object, cost);
      const auto ins = tier1_->insert(object, cost);
      if (!ins.inserted) {
        // Tier 1 declined (degenerate zero-capacity proxy): put it back.
        const auto back = tier2_->insert(object, cost);
        if (back.evicted) depart(*back.evicted);
        if (!back.inserted) {
          depart(object);
        } else {
          notify(object, Where::kTier2);
        }
        break;
      }
      notify(object, Where::kTier1);
      if (counters_) counters_->promotions.inc();
      if (ins.evicted) destage(*ins.evicted);
      break;
    }
    case Where::kMiss:
      assert(false && "TieredCache::access: object not cached");
      break;
  }
  return where;
}

TieredCache::Where TieredCache::refresh(ObjectNum object, double cost) {
  check_cost(cost, "TieredCache::refresh: cost is NaN");
  const Where where = locate(object);
  switch (where) {
    case Where::kTier1:
      tier1_->access(object, cost);
      if (counters_) counters_->tier1_hits.inc();
      break;
    case Where::kTier2:
      tier2_->access(object, cost);
      if (counters_) counters_->tier2_hits.inc();
      break;
    case Where::kMiss:
      assert(false && "TieredCache::refresh: object not cached");
      break;
  }
  return where;
}

bool TieredCache::admit(ObjectNum object, double cost) {
  check_cost(cost, "TieredCache::admit: cost is NaN");
  assert(!contains(object) && "TieredCache::admit: object already cached");
  const auto ins = tier1_->insert(object, cost);
  if (!ins.inserted) {
    if (counters_) counters_->declines.inc();
    return false;
  }
  cost_.set(object, cost);
  notify(object, Where::kTier1);
  if (counters_) counters_->admissions.inc();
  if (ins.evicted) destage(*ins.evicted);
  return true;
}

}  // namespace webcache::sim
