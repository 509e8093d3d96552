#include "cache/w_tinylfu.hpp"

#include <algorithm>
#include <stdexcept>

namespace webcache::cache {

WTinyLfuCache::WTinyLfuCache(std::size_t capacity)
    : Cache(capacity),
      filter_(capacity),
      // ~1% recency window (at least one slot), 80% of the remainder
      // protected — the paper's recommended split.
      window_cap_(capacity == 0 ? 0 : std::max<std::size_t>(1, capacity / 100)),
      protected_cap_((capacity - std::min(capacity, window_cap_)) * 4 / 5) {}

void WTinyLfuCache::access(ObjectNum object, double /*cost*/) {
  const std::uint32_t* found = lists_.find(object);
  if (found == nullptr) throw std::logic_error("WTinyLfuCache::access: object not cached");
  const std::uint32_t at = *found;
  filter_.record_access(object);
  obs_hit();
  // A window or protected hit refreshes; a probation hit proves reuse and
  // promotes. Overflow demotes the protected LRU back to probation MRU
  // (objects never leave the cache on a hit).
  lists_.move(at, lists_.node(at).list == kWindow ? kWindow : kProtected);
  if (lists_.list(kProtected).size > protected_cap_) {
    lists_.move(lists_.list(kProtected).head, kProbation);
  }
}

InsertResult WTinyLfuCache::insert(ObjectNum object, double /*cost*/) {
  if (contains(object)) throw std::logic_error("WTinyLfuCache::insert: object already cached");
  filter_.record_access(object);
  if (capacity_ == 0) return {};
  InsertResult result;
  result.inserted = true;
  obs_inserted();
  lists_.append(lists_.insert(object), kWindow);
  if (lists_.list(kWindow).size <= window_cap_) return result;

  // Window overflow: its LRU becomes the admission candidate. (The candidate
  // is never `object` itself — the window holds >= 2 entries here.)
  const std::uint32_t candidate = lists_.list(kWindow).head;
  const std::size_t main_cap = capacity_ - window_cap_;
  if (main_cap == 0) {
    // Degenerate capacity (< 2): pure window LRU.
    result.evicted = lists_.node(candidate).object;
    lists_.erase(candidate);
    obs_evicted();
    return result;
  }
  if (lists_.list(kProbation).size + lists_.list(kProtected).size < main_cap) {
    // Main region still filling: no duel needed.
    lists_.move(candidate, kProbation);
    return result;
  }

  const std::uint32_t victim =
      lists_.list(lists_.list(kProbation).size == 0 ? kProtected : kProbation).head;
  if (filter_.consider(lists_.node(candidate).object, lists_.node(victim).object)) {
    result.evicted = lists_.node(victim).object;
    lists_.erase(victim);
    lists_.move(candidate, kProbation);
  } else {
    // The candidate lost the frequency duel: it is the eviction.
    result.evicted = lists_.node(candidate).object;
    lists_.erase(candidate);
  }
  obs_evicted();
  return result;
}

bool WTinyLfuCache::erase(ObjectNum object) {
  const std::uint32_t* at = lists_.find(object);
  if (at == nullptr) return false;
  lists_.erase(*at);
  return true;
}

std::optional<ObjectNum> WTinyLfuCache::peek_victim() const {
  for (const std::uint32_t l : {kProbation, kProtected, kWindow}) {
    if (lists_.list(l).size != 0) return lists_.node(lists_.list(l).head).object;
  }
  return std::nullopt;
}

std::vector<ObjectNum> WTinyLfuCache::contents() const { return lists_.objects(); }

}  // namespace webcache::cache
