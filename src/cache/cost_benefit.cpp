#include "cache/cost_benefit.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace webcache::cache {

CostBenefitCoordinator::CostBenefitCoordinator(std::vector<double> per_proxy_frequency,
                                               unsigned cluster_size, double server_latency,
                                               double proxy_latency)
    : frequency_(std::move(per_proxy_frequency)),
      cluster_size_(cluster_size),
      server_latency_(server_latency),
      proxy_latency_(proxy_latency) {
  if (cluster_size == 0) {
    throw std::invalid_argument("CostBenefitCoordinator: cluster_size must be >= 1");
  }
  if (!(server_latency > 0.0) || !(proxy_latency >= 0.0) || proxy_latency > server_latency) {
    throw std::invalid_argument(
        "CostBenefitCoordinator: need 0 <= proxy_latency <= server_latency, server > 0");
  }
}

unsigned CostBenefitCoordinator::replica_count(ObjectNum object) const {
  const auto* holders = find_holders(object);
  return holders == nullptr ? 0 : static_cast<unsigned>(holders->size());
}

bool CostBenefitCoordinator::held_elsewhere(ObjectNum object,
                                            const CostBenefitCache* except) const {
  const auto* holders = find_holders(object);
  if (holders == nullptr) return false;
  return std::any_of(holders->begin(), holders->end(),
                     [except](const CostBenefitCache* c) { return c != except; });
}

double CostBenefitCoordinator::copy_value(ObjectNum object, unsigned replicas) const {
  const double f = frequency(object);
  if (replicas <= 1) {
    // Sole copy: local clients would fall back to the server (Ts instead of
    // a free local hit) and every other proxy pays Ts instead of Tc.
    return f * (server_latency_ +
                static_cast<double>(cluster_size_ - 1) * (server_latency_ - proxy_latency_));
  }
  // Redundant copy: only the local clients lose the proxy-to-proxy saving.
  return f * proxy_latency_;
}

void CostBenefitCoordinator::consume(ObjectNum object) {
  if (object >= frequency_.size()) return;
  frequency_[object] =
      std::max(0.0, frequency_[object] - 1.0 / static_cast<double>(cluster_size_));
  reprice_holders(object);
}

void CostBenefitCoordinator::reprice_holders(ObjectNum object) {
  const auto* holders = find_holders(object);
  if (holders == nullptr) return;
  const auto replicas = static_cast<unsigned>(holders->size());
  const double value = copy_value(object, replicas);
  for (CostBenefitCache* holder : *holders) {
    holder->reprice(object, value);
  }
}

void CostBenefitCoordinator::on_copy_added(ObjectNum object, CostBenefitCache* cache) {
  if (object >= holders_.size()) holders_.resize(static_cast<std::size_t>(object) + 1);
  auto& holders = holders_[object];
  holders.push_back(cache);
  if (holders.size() == 2) {
    // The pre-existing copy is no longer the sole one: price it down.
    CostBenefitCache* other = holders.front() == cache ? holders.back() : holders.front();
    other->reprice(object, copy_value(object, 2));
  }
}

void CostBenefitCoordinator::on_copy_removed(ObjectNum object, CostBenefitCache* cache) {
  assert(find_holders(object) != nullptr);
  auto& holders = holders_[object];
  std::erase(holders, cache);
  if (holders.size() == 1) {
    // The survivor became the sole copy: price it up.
    holders.front()->reprice(object, copy_value(object, 1));
  }
}

// --- member cache -----------------------------------------------------------

CostBenefitCache::CostBenefitCache(std::size_t capacity, CostBenefitCoordinator& coordinator)
    : Cache(capacity), coordinator_(coordinator) {}

CostBenefitCache::~CostBenefitCache() {
  order_.for_each([this](ObjectNum object, const Key&) {
    coordinator_.on_copy_removed(object, this);
  });
}

void CostBenefitCache::access(ObjectNum object, double /*cost*/) {
  if (!order_.contains(object)) {
    throw std::logic_error("CostBenefitCache::access: object not cached");
  }
  obs_hit();  // values are static under perfect frequency knowledge
}

InsertResult CostBenefitCache::insert(ObjectNum object, double /*cost*/) {
  if (order_.contains(object)) {
    throw std::logic_error("CostBenefitCache::insert: object already cached");
  }
  if (capacity_ == 0) return {};

  const unsigned replicas_after = coordinator_.replica_count(object) + 1;
  const double new_value = coordinator_.copy_value(object, replicas_after);

  InsertResult result;
  if (order_.size() >= capacity_) {
    const auto [victim_key, victim] = order_.top();
    if (new_value <= victim_key.first) {
      obs_declined();
      return result;  // newcomer not worth evicting anything for
    }
    order_.pop();
    coordinator_.on_copy_removed(victim, this);
    result.evicted = victim;
    obs_evicted();
  }

  result.inserted = true;
  obs_inserted();
  order_.insert(object, Key{new_value, ++seq_});
  coordinator_.on_copy_added(object, this);
  return result;
}

bool CostBenefitCache::erase(ObjectNum object) {
  if (!order_.erase(object)) return false;
  coordinator_.on_copy_removed(object, this);
  return true;
}

std::optional<ObjectNum> CostBenefitCache::peek_victim() const {
  if (order_.empty()) return std::nullopt;
  return order_.top().second;
}

std::vector<ObjectNum> CostBenefitCache::contents() const {
  std::vector<ObjectNum> out;
  out.reserve(order_.size());
  order_.for_each([&out](ObjectNum object, const Key&) { out.push_back(object); });
  return out;
}

double CostBenefitCache::value_of(ObjectNum object) const {
  const Key* key = order_.find(object);
  return key == nullptr ? 0.0 : key->first;
}

void CostBenefitCache::reprice(ObjectNum object, double new_value) {
  const Key* key = order_.find(object);
  assert(key != nullptr && "CostBenefitCache::reprice: object not cached");
  if (key->first == new_value) return;  // no-op reprice, skip the heap sift
  order_.set(object, Key{new_value, key->second});
}

}  // namespace webcache::cache
