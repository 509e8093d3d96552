#include "cache/lru.hpp"

#include <stdexcept>

namespace webcache::cache {

void LruCache::access(ObjectNum object, double /*cost*/) {
  auto* pos = index_.find(object);
  if (pos == nullptr) throw std::logic_error("LruCache::access: object not cached");
  obs_hit();
  order_.splice(order_.begin(), order_, *pos);
}

InsertResult LruCache::insert(ObjectNum object, double /*cost*/) {
  if (index_.contains(object)) throw std::logic_error("LruCache::insert: object already cached");
  if (capacity_ == 0) return {};
  InsertResult result;
  result.inserted = true;
  obs_inserted();
  if (index_.size() >= capacity_) {
    const ObjectNum victim = order_.back();
    order_.pop_back();
    index_.erase(victim);
    result.evicted = victim;
    obs_evicted();
  }
  order_.push_front(object);
  index_[object] = order_.begin();
  return result;
}

bool LruCache::erase(ObjectNum object) {
  auto* pos = index_.find(object);
  if (pos == nullptr) return false;
  order_.erase(*pos);
  index_.erase(object);
  return true;
}

std::optional<ObjectNum> LruCache::peek_victim() const {
  if (order_.empty()) return std::nullopt;
  return order_.back();
}

std::vector<ObjectNum> LruCache::contents() const {
  return {order_.begin(), order_.end()};
}

}  // namespace webcache::cache
