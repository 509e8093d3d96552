#include "cache/arc.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace webcache::cache {

bool ArcCache::contains(ObjectNum object) const {
  const Entry* entry = index_.find(object);
  return entry != nullptr && (entry->where == ListId::kT1 || entry->where == ListId::kT2);
}

void ArcCache::access(ObjectNum object, double /*cost*/) {
  Entry* entry = index_.find(object);
  if (entry == nullptr || (entry->where != ListId::kT1 && entry->where != ListId::kT2)) {
    throw std::logic_error("ArcCache::access: object not cached");
  }
  obs_hit();
  // Any repeat reference promotes to the frequency list's MRU position.
  t2_.splice(t2_.begin(), list_of(entry->where), entry->pos);
  entry->where = ListId::kT2;
  entry->pos = t2_.begin();
}

InsertResult ArcCache::insert(ObjectNum object, double /*cost*/) {
  // A ghost (B1/B2) entry is not cached: re-inserting it is the ghost hit.
  if (contains(object)) throw std::logic_error("ArcCache::insert: object already cached");
  if (capacity_ == 0) return {};
  InsertResult result;
  Entry* entry = index_.find(object);

  if (entry != nullptr && entry->where == ListId::kB1) {
    // Ghost hit in B1: recency is undervalued — grow T1's target share.
    ++ghost_hits_b1_;
    if (policy_ghost_b1_ != nullptr) policy_ghost_b1_->inc();
    const std::size_t delta =
        std::max<std::size_t>(1, b2_.size() / std::max<std::size_t>(1, b1_.size()));
    set_p(std::min(capacity_, p_ + delta));
    if (size() >= capacity_) result.evicted = replace(false);
    b1_.erase(entry->pos);
    t2_.push_front(object);
    entry->where = ListId::kT2;
    entry->pos = t2_.begin();
  } else if (entry != nullptr && entry->where == ListId::kB2) {
    // Ghost hit in B2: frequency is undervalued — shrink T1's target share.
    ++ghost_hits_b2_;
    if (policy_ghost_b2_ != nullptr) policy_ghost_b2_->inc();
    const std::size_t delta =
        std::max<std::size_t>(1, b1_.size() / std::max<std::size_t>(1, b2_.size()));
    set_p(p_ > delta ? p_ - delta : 0);
    if (size() >= capacity_) result.evicted = replace(true);
    b2_.erase(entry->pos);
    t2_.push_front(object);
    entry->where = ListId::kT2;
    entry->pos = t2_.begin();
  } else {
    // Genuinely new object: Case IV of the paper.
    const std::size_t l1 = t1_.size() + b1_.size();
    if (l1 >= capacity_) {
      if (t1_.size() < capacity_) {
        drop_ghost_lru(ListId::kB1);
        if (size() >= capacity_) result.evicted = replace(false);
      } else {
        // B1 empty and T1 full: the T1 LRU leaves the cache without a ghost.
        const ObjectNum victim = t1_.back();
        t1_.pop_back();
        index_.erase(victim);
        result.evicted = victim;
      }
    } else if (size() + b1_.size() + b2_.size() >= capacity_) {
      if (size() + b1_.size() + b2_.size() >= 2 * capacity_) {
        drop_ghost_lru(ListId::kB2);
      }
      if (size() >= capacity_) result.evicted = replace(false);
    }
    t1_.push_front(object);
    index_[object] = {t1_.begin(), ListId::kT1};
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
  const bool from_t1 =
      !t1_.empty() &&
      (t2_.empty() || t1_.size() > p_ || (hit_in_b2 && t1_.size() == p_));
  std::list<ObjectNum>& from = from_t1 ? t1_ : t2_;
  std::list<ObjectNum>& ghost = from_t1 ? b1_ : b2_;
  const ObjectNum victim = from.back();
  ghost.splice(ghost.begin(), from, std::prev(from.end()));
  Entry* entry = index_.find(victim);
  entry->where = from_t1 ? ListId::kB1 : ListId::kB2;
  entry->pos = ghost.begin();
  return victim;
}

void ArcCache::drop_ghost_lru(ListId id) {
  std::list<ObjectNum>& ghost = list_of(id);
  assert(!ghost.empty() && "ArcCache: dropping from an empty ghost list");
  const ObjectNum forgotten = ghost.back();
  ghost.pop_back();
  index_.erase(forgotten);
}

void ArcCache::set_p(std::size_t p) {
  p_ = p;
  if (policy_p_ != nullptr) policy_p_->set(static_cast<double>(p_));
}

bool ArcCache::erase(ObjectNum object) {
  Entry* entry = index_.find(object);
  if (entry == nullptr) return false;
  const Entry copy = *entry;
  list_of(copy.where).erase(copy.pos);
  index_.erase(object);
  // Ghosts are bookkeeping, not cached objects: forgetting one is not an
  // erase of a present object.
  return copy.where == ListId::kT1 || copy.where == ListId::kT2;
}

void ArcCache::reserve_universe(std::size_t universe) {
  // Cached + ghost entries never exceed 2c (DBL's invariant), plus one for
  // the in-flight insert.
  index_.reserve(std::min(universe, 2 * capacity_) + 1);
}

std::optional<ObjectNum> ArcCache::peek_victim() const {
  if (t1_.empty() && t2_.empty()) return std::nullopt;
  const bool from_t1 = !t1_.empty() && (t2_.empty() || t1_.size() > p_);
  return from_t1 ? t1_.back() : t2_.back();
}

std::vector<ObjectNum> ArcCache::contents() const {
  std::vector<ObjectNum> result;
  result.reserve(size());
  result.insert(result.end(), t1_.begin(), t1_.end());
  result.insert(result.end(), t2_.begin(), t2_.end());
  return result;
}

void ArcCache::bind_policy_observability(obs::Registry& registry,
                                         const std::string& prefix) {
  policy_ghost_b1_ = &registry.counter(prefix + "policy.arc_ghost_hits_b1");
  policy_ghost_b2_ = &registry.counter(prefix + "policy.arc_ghost_hits_b2");
  policy_p_ = &registry.gauge(prefix + "policy.arc_p");
  policy_p_->set(static_cast<double>(p_));
}

}  // namespace webcache::cache
