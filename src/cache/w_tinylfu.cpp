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
  Entry* entry = index_.find(object);
  if (entry == nullptr) throw std::logic_error("WTinyLfuCache::access: object not cached");
  note_sampled(filter_.record_access(object));
  obs_hit();
  switch (entry->segment) {
    case Segment::kWindow:
      window_.splice(window_.begin(), window_, entry->pos);
      break;
    case Segment::kProtected:
      protected_.splice(protected_.begin(), protected_, entry->pos);
      break;
    case Segment::kProbation: {
      // A probation hit proves reuse: promote. Overflow demotes the
      // protected LRU back to probation MRU (objects never leave the cache
      // on a hit).
      protected_.splice(protected_.begin(), probation_, entry->pos);
      entry->segment = Segment::kProtected;
      if (protected_.size() > protected_cap_) {
        const ObjectNum demoted = protected_.back();
        probation_.splice(probation_.begin(), protected_, std::prev(protected_.end()));
        Entry* moved = index_.find(demoted);
        moved->pos = probation_.begin();
        moved->segment = Segment::kProbation;
      }
      break;
    }
  }
}

InsertResult WTinyLfuCache::insert(ObjectNum object, double /*cost*/) {
  if (index_.contains(object)) {
    throw std::logic_error("WTinyLfuCache::insert: object already cached");
  }
  note_sampled(filter_.record_access(object));
  if (capacity_ == 0) return {};
  InsertResult result;
  result.inserted = true;
  obs_inserted();
  window_.push_front(object);
  index_[object] = {window_.begin(), Segment::kWindow};
  if (window_.size() <= window_cap_) return result;

  // Window overflow: its LRU becomes the admission candidate. (The candidate
  // is never `object` itself — the window holds >= 2 entries here.)
  const ObjectNum candidate = window_.back();
  const std::size_t main_cap = capacity_ - window_cap_;
  if (main_cap == 0) {
    // Degenerate capacity (< 2): pure window LRU.
    window_.pop_back();
    index_.erase(candidate);
    result.evicted = candidate;
    obs_evicted();
    return result;
  }
  if (probation_.size() + protected_.size() < main_cap) {
    // Main region still filling: no duel needed.
    probation_.splice(probation_.begin(), window_, std::prev(window_.end()));
    Entry* moved = index_.find(candidate);
    moved->pos = probation_.begin();
    moved->segment = Segment::kProbation;
    return result;
  }

  const ObjectNum victim = probation_.empty() ? protected_.back() : probation_.back();
  if (policy_considered_ != nullptr) policy_considered_->inc();
  if (filter_.admit(candidate, victim)) {
    if (policy_accepts_ != nullptr) policy_accepts_->inc();
    drop(victim, *index_.find(victim));
    result.evicted = victim;
    probation_.splice(probation_.begin(), window_, std::prev(window_.end()));
    Entry* moved = index_.find(candidate);
    moved->pos = probation_.begin();
    moved->segment = Segment::kProbation;
  } else {
    // The candidate lost the frequency duel: it is the eviction.
    if (policy_rejects_ != nullptr) policy_rejects_->inc();
    window_.pop_back();
    index_.erase(candidate);
    result.evicted = candidate;
  }
  obs_evicted();
  return result;
}

bool WTinyLfuCache::erase(ObjectNum object) {
  Entry* entry = index_.find(object);
  if (entry == nullptr) return false;
  drop(object, *entry);
  return true;
}

void WTinyLfuCache::drop(ObjectNum object, const Entry& entry) {
  // Copy first: erasing the index slot invalidates `entry` when it aliases
  // the FlatMap storage.
  const Entry copy = entry;
  list_of(copy.segment).erase(copy.pos);
  index_.erase(object);
}

void WTinyLfuCache::reserve_universe(std::size_t universe) {
  // The index never holds more than capacity + 1 entries (insert places the
  // newcomer before the eviction cascade runs), so this removes every mid-run
  // rehash regardless of universe size.
  index_.reserve(std::min(universe, capacity_) + 1);
}

std::optional<ObjectNum> WTinyLfuCache::peek_victim() const {
  if (!probation_.empty()) return probation_.back();
  if (!protected_.empty()) return protected_.back();
  if (!window_.empty()) return window_.back();
  return std::nullopt;
}

std::vector<ObjectNum> WTinyLfuCache::contents() const {
  std::vector<ObjectNum> result;
  result.reserve(index_.size());
  result.insert(result.end(), window_.begin(), window_.end());
  result.insert(result.end(), probation_.begin(), probation_.end());
  result.insert(result.end(), protected_.begin(), protected_.end());
  return result;
}

void WTinyLfuCache::bind_policy_observability(obs::Registry& registry,
                                              const std::string& prefix) {
  policy_considered_ = &registry.counter(prefix + "policy.admission_considered");
  policy_accepts_ = &registry.counter(prefix + "policy.admission_accepts");
  policy_rejects_ = &registry.counter(prefix + "policy.admission_rejects");
  policy_halvings_ = &registry.counter(prefix + "policy.sketch_halvings");
}

}  // namespace webcache::cache
