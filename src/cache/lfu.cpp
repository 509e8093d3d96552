#include "cache/lfu.hpp"

#include <stdexcept>

namespace webcache::cache {

void LfuCache::access(ObjectNum object, double /*cost*/) {
  const Rank* rank = order_.find(object);
  if (rank == nullptr) throw std::logic_error("LfuCache::access: object not cached");
  obs_hit();
  // LFU-DA re-keys from the current floor on every hit, so a re-warming
  // object immediately out-keys everything the aging has devalued.
  const std::uint64_t freq = rank->freq + 1;
  order_.set(object, Rank{freq + aging_floor_, ++seq_, freq});
}

InsertResult LfuCache::insert(ObjectNum object, double /*cost*/) {
  if (order_.contains(object)) throw std::logic_error("LfuCache::insert: object already cached");
  if (capacity_ == 0) return {};

  InsertResult result;
  result.inserted = true;
  obs_inserted();
  if (order_.size() >= capacity_) {
    obs_evicted();
    const auto [victim_rank, victim] = order_.top();
    // The victim's key becomes the new floor: everything still cached is
    // effectively aged by that amount (same inflation trick greedy-dual
    // uses, with cost = 1 per access).
    aging_floor_ = victim_rank.key;
    order_.pop();
    result.evicted = victim;
  }
  order_.insert(object, Rank{1 + aging_floor_, ++seq_, 1});
  return result;
}

bool LfuCache::erase(ObjectNum object) { return order_.erase(object); }

std::optional<ObjectNum> LfuCache::peek_victim() const {
  if (order_.empty()) return std::nullopt;
  return order_.top().second;
}

std::vector<ObjectNum> LfuCache::contents() const {
  std::vector<ObjectNum> out;
  out.reserve(order_.size());
  order_.for_each([&out](ObjectNum object, const Rank&) { out.push_back(object); });
  return out;
}

std::uint64_t LfuCache::frequency(ObjectNum object) const {
  const Rank* rank = order_.find(object);
  return rank != nullptr ? rank->freq : 0;
}

}  // namespace webcache::cache
