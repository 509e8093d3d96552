#include "cache/lfu.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace webcache::cache {

void LfuCache::access(ObjectNum object, double /*cost*/) {
  const std::uint32_t* at = lists_.find(object);
  if (at == nullptr) throw std::logic_error("LfuCache::access: object not cached");
  obs_hit();
  // LFU-DA re-keys from the current floor on every hit, so a re-warming
  // object immediately out-keys everything the aging has devalued.
  const std::uint32_t node = *at;
  lists_.unlink(node);
  place(node, ++lists_.node(node).freq + aging_floor_);
}

InsertResult LfuCache::insert(ObjectNum object, double /*cost*/) {
  if (contains(object)) throw std::logic_error("LfuCache::insert: object already cached");
  if (capacity_ == 0) return {};

  InsertResult result;
  result.inserted = true;
  obs_inserted();
  if (size() >= capacity_) {
    // The victim's node is freed, and the newcomer takes it back below.
    const std::uint32_t v = victim();
    // The victim's key becomes the new floor: everything still cached is
    // effectively aged by that amount (same inflation trick greedy-dual
    // uses, with cost = 1 per access).
    aging_floor_ = lists_.node(v).key;
    result.evicted = lists_.node(v).object;
    lists_.erase(v);
    obs_evicted();
  } else if (size() == lists_.list_count()) {
    grow_ring();
  }
  const std::uint32_t at = lists_.insert(object);
  lists_.node(at).freq = 1;
  place(at, 1 + aging_floor_);
  return result;
}

bool LfuCache::erase(ObjectNum object) {
  const std::uint32_t* at = lists_.find(object);
  if (at == nullptr) return false;
  lists_.erase(*at);
  return true;
}

std::optional<ObjectNum> LfuCache::peek_victim() const {
  if (size() == 0) return std::nullopt;
  return lists_.node(victim()).object;
}

std::vector<ObjectNum> LfuCache::contents() const { return lists_.objects(); }

std::uint64_t LfuCache::frequency(ObjectNum object) const {
  const std::uint32_t* at = lists_.find(object);
  return at == nullptr ? 0 : lists_.node(*at).freq;
}

void LfuCache::place(std::uint32_t at, std::uint64_t key) {
  lists_.node(at).key = key;
  lists_.append(at, static_cast<std::uint32_t>(key & (lists_.list_count() - 1)));
}

void LfuCache::grow_ring() {
  const std::size_t old = lists_.list_count();
  lists_.resize_lists(old == 0 ? 1 : 2 * old);
  // Slot s splits into s and s + old. Walking it in order and appending
  // each entry to its new slot keeps every key's entries in (re)key order.
  for (std::uint32_t s = 0; s < old; ++s) {
    for (std::uint32_t at = lists_.take(s); at != Lists::kNil;) {
      const std::uint32_t next = lists_.node(at).next;
      place(at, lists_.node(at).key);
      at = next;
    }
  }
}

std::uint32_t LfuCache::victim() const {
  const std::uint64_t mask = lists_.list_count() - 1;
  const auto head = [this, mask](std::uint64_t key) {
    return lists_.list(static_cast<std::uint32_t>(key & mask)).head;
  };
  std::uint64_t key = aging_floor_;
  std::uint64_t lowest = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t step = 0; step < lists_.list_count(); ++step, ++key) {
    for (std::uint32_t at = head(key); at != Lists::kNil; at = lists_.node(at).next) {
      if (lists_.node(at).key == key) return at;
      lowest = std::min(lowest, lists_.node(at).key);
    }
  }
  // A whole turn met every live node, none at the keys it passed: the
  // lowest key it saw is the minimum, and its slot holds that key's head.
  std::uint32_t at = head(lowest);
  while (lists_.node(at).key != lowest) at = lists_.node(at).next;
  return at;
}

}  // namespace webcache::cache
