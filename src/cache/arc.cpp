#include "cache/arc.hpp"

#include <algorithm>
#include <stdexcept>

namespace webcache::cache {

void ArcCache::access(ObjectNum object, double /*cost*/) {
  const std::uint32_t* at = lists_.find(object);
  if (at == nullptr || !cached(*at)) throw std::logic_error("ArcCache::access: object not cached");
  obs_hit();
  // Any repeat reference promotes to the frequency list's MRU position.
  lists_.move(*at, kT2);
}

InsertResult ArcCache::insert(ObjectNum object, double /*cost*/) {
  // A ghost (B1/B2) entry is not cached: re-inserting it is the ghost hit.
  if (contains(object)) throw std::logic_error("ArcCache::insert: object already cached");
  if (capacity_ == 0) return {};
  InsertResult result;
  const std::size_t b1 = lists_.list(kB1).size;
  const std::size_t b2 = lists_.list(kB2).size;

  if (const std::uint32_t* found = lists_.find(object)) {
    const std::uint32_t ghost = *found;
    const bool in_b2 = lists_.node(ghost).list == kB2;
    if (!in_b2) {
      // Ghost hit in B1: recency is undervalued — grow T1's target share.
      ++ghost_hits_b1_;
      if (policy_ghost_b1_ != nullptr) policy_ghost_b1_->inc();
      const std::size_t delta = std::max<std::size_t>(1, b2 / std::max<std::size_t>(1, b1));
      set_p(std::min(capacity_, p_ + delta));
    } else {
      // Ghost hit in B2: frequency is undervalued — shrink T1's target share.
      ++ghost_hits_b2_;
      if (policy_ghost_b2_ != nullptr) policy_ghost_b2_->inc();
      const std::size_t delta = std::max<std::size_t>(1, b1 / std::max<std::size_t>(1, b2));
      set_p(p_ > delta ? p_ - delta : 0);
    }
    if (size() >= capacity_) result.evicted = replace(in_b2);
    lists_.move(ghost, kT2);
  } else {
    // Genuinely new object: Case IV of the paper.
    const std::size_t t1 = lists_.list(kT1).size;
    if (t1 + b1 >= capacity_) {
      if (t1 < capacity_) {
        lists_.erase(lists_.list(kB1).head);  // forget B1's LRU ghost
        if (size() >= capacity_) result.evicted = replace(false);
      } else {
        // B1 empty and T1 full: the T1 LRU leaves the cache without a ghost.
        const std::uint32_t victim = lists_.list(kT1).head;
        result.evicted = lists_.node(victim).object;
        lists_.erase(victim);
      }
    } else if (size() + b1 + b2 >= capacity_) {
      if (size() + b1 + b2 >= 2 * capacity_) lists_.erase(lists_.list(kB2).head);
      if (size() >= capacity_) result.evicted = replace(false);
    }
    lists_.append(lists_.insert(object), kT1);
  }

  result.inserted = true;
  obs_inserted();
  if (result.evicted.has_value()) obs_evicted();
  return result;
}

ObjectNum ArcCache::replace(bool hit_in_b2) {
  // Demote T1's LRU when T1 exceeds its target (or meets it exactly while a
  // B2 ghost hit is shrinking it); otherwise T2's. The empty-list guards
  // matter only after erase() has broken the paper's occupancy invariants.
  const std::size_t t1 = lists_.list(kT1).size;
  const bool from_t1 =
      t1 != 0 && (lists_.list(kT2).size == 0 || t1 > p_ || (hit_in_b2 && t1 == p_));
  const std::uint32_t victim = lists_.list(from_t1 ? kT1 : kT2).head;
  lists_.move(victim, from_t1 ? kB1 : kB2);
  return lists_.node(victim).object;
}

void ArcCache::set_p(std::size_t p) {
  p_ = p;
  if (policy_p_ != nullptr) policy_p_->set(static_cast<double>(p_));
}

bool ArcCache::erase(ObjectNum object) {
  const std::uint32_t* at = lists_.find(object);
  if (at == nullptr) return false;
  // Ghosts are bookkeeping, not cached objects: forgetting one is not an
  // erase of a present object.
  const bool was_cached = cached(*at);
  lists_.erase(*at);
  return was_cached;
}

std::optional<ObjectNum> ArcCache::peek_victim() const {
  const std::size_t t1 = lists_.list(kT1).size;
  const std::size_t t2 = lists_.list(kT2).size;
  if (t1 == 0 && t2 == 0) return std::nullopt;
  const bool from_t1 = t1 != 0 && (t2 == 0 || t1 > p_);
  return lists_.node(lists_.list(from_t1 ? kT1 : kT2).head).object;
}

std::vector<ObjectNum> ArcCache::contents() const {
  std::vector<ObjectNum> result;
  result.reserve(size());
  for (const std::uint32_t l : {kT1, kT2}) {
    lists_.for_each(l, [&result](const Lists::Node& n) { result.push_back(n.object); });
  }
  return result;
}

void ArcCache::bind_policy_observability(obs::Registry& registry, const std::string& prefix) {
  policy_ghost_b1_ = &registry.counter(prefix + "policy.arc_ghost_hits_b1");
  policy_ghost_b2_ = &registry.counter(prefix + "policy.arc_ghost_hits_b2");
  policy_p_ = &registry.gauge(prefix + "policy.arc_p");
  policy_p_->set(static_cast<double>(p_));
}

}  // namespace webcache::cache
