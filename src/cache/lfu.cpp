#include "cache/lfu.hpp"

#include <cassert>

namespace webcache::cache {

void LfuCache::access(ObjectNum object, double /*cost*/) {
  Entry* e = entries_.find(object);
  assert(e != nullptr && "LfuCache::access: object not cached");
  obs_hit();
  ++e->freq;
  // LFU-DA re-keys from the current floor on every hit, so a re-warming
  // object immediately out-keys everything the aging has devalued.
  e->key = e->freq + aging_floor_;
  e->last_seq = ++seq_;
  order_.set(object, key_of(*e));
}

InsertResult LfuCache::insert(ObjectNum object, double /*cost*/) {
  assert(!entries_.contains(object) && "LfuCache::insert: object already cached");
  if (capacity_ == 0) return {};

  InsertResult result;
  result.inserted = true;
  obs_inserted();
  if (entries_.size() >= capacity_) {
    obs_evicted();
    const auto [victim_key, victim] = order_.top();
    // The victim's key becomes the new floor: everything still cached is
    // effectively aged by that amount (same inflation trick greedy-dual
    // uses, with cost = 1 per access).
    aging_floor_ = victim_key.first;
    order_.pop();
    entries_.erase(victim);
    result.evicted = victim;
  }
  const Entry e{1, 1 + aging_floor_, ++seq_};
  entries_[object] = e;
  order_.set(object, key_of(e));
  return result;
}

bool LfuCache::erase(ObjectNum object) {
  if (!entries_.erase(object)) return false;
  order_.erase(object);
  return true;
}

std::optional<ObjectNum> LfuCache::peek_victim() const {
  if (order_.empty()) return std::nullopt;
  return order_.top().second;
}

std::vector<ObjectNum> LfuCache::contents() const {
  std::vector<ObjectNum> out;
  out.reserve(entries_.size());
  entries_.for_each([&out](ObjectNum object, const Entry&) { out.push_back(object); });
  return out;
}

std::uint64_t LfuCache::frequency(ObjectNum object) const {
  const Entry* e = entries_.find(object);
  return e != nullptr ? e->freq : 0;
}

}  // namespace webcache::cache
