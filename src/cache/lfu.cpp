#include "cache/lfu.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace webcache::cache {

void LfuCache::access(ObjectNum object, double /*cost*/) {
  const std::uint32_t* at = index_.find(object);
  if (at == nullptr) throw std::logic_error("LfuCache::access: object not cached");
  obs_hit();
  // LFU-DA re-keys from the current floor on every hit, so a re-warming
  // object immediately out-keys everything the aging has devalued.
  const std::uint32_t node = *at;
  unlink(node);
  place(node, ++nodes_[node].freq + aging_floor_);
}

InsertResult LfuCache::insert(ObjectNum object, double /*cost*/) {
  if (contains(object)) throw std::logic_error("LfuCache::insert: object already cached");
  if (capacity_ == 0) return {};

  InsertResult result;
  result.inserted = true;
  obs_inserted();
  std::uint32_t at = kNil;
  if (size_ >= capacity_) {
    // The victim's node is reused for the newcomer.
    at = victim();
    const Node& v = nodes_[at];
    // The victim's key becomes the new floor: everything still cached is
    // effectively aged by that amount (same inflation trick greedy-dual
    // uses, with cost = 1 per access).
    aging_floor_ = v.key;
    unlink(at);
    index_.erase(v.object);
    result.evicted = v.object;
    obs_evicted();
  } else {
    if (size_ == ring_.size()) grow_ring();
    if (free_ != kNil) {
      at = free_;
      free_ = nodes_[at].next;
    } else {
      at = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    ++size_;
  }
  nodes_[at].object = object;
  nodes_[at].freq = 1;
  place(at, 1 + aging_floor_);
  index_.set(object, at);
  return result;
}

bool LfuCache::erase(ObjectNum object) {
  const std::uint32_t* at = index_.find(object);
  if (at == nullptr) return false;
  const std::uint32_t node = *at;
  unlink(node);
  index_.erase(object);
  nodes_[node].next = free_;
  free_ = node;
  --size_;
  return true;
}

std::optional<ObjectNum> LfuCache::peek_victim() const {
  if (size_ == 0) return std::nullopt;
  return nodes_[victim()].object;
}

std::vector<ObjectNum> LfuCache::contents() const {
  std::vector<ObjectNum> out;
  out.reserve(size_);
  for (const Slot& slot : ring_) {
    for (std::uint32_t at = slot.head; at != kNil; at = nodes_[at].next) {
      out.push_back(nodes_[at].object);
    }
  }
  return out;
}

std::uint64_t LfuCache::frequency(ObjectNum object) const {
  const std::uint32_t* at = index_.find(object);
  return at == nullptr ? 0 : nodes_[*at].freq;
}

void LfuCache::place(std::uint32_t at, std::uint64_t key) {
  Node& n = nodes_[at];
  n.key = key;
  Slot& s = slot_of(key);
  n.prev = s.tail;
  n.next = kNil;
  (s.tail == kNil ? s.head : nodes_[s.tail].next) = at;
  s.tail = at;
}

void LfuCache::unlink(std::uint32_t at) {
  const Node& n = nodes_[at];
  Slot& s = slot_of(n.key);
  (n.prev == kNil ? s.head : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? s.tail : nodes_[n.next].prev) = n.prev;
}

void LfuCache::grow_ring() {
  const std::size_t old = ring_.size();
  ring_.resize(old == 0 ? 1 : 2 * old);
  // Slot s splits into s and s + old. Walking it in order and appending
  // each entry to its new slot keeps every key's entries in (re)key order.
  for (std::size_t s = 0; s < old; ++s) {
    std::uint32_t at = ring_[s].head;
    ring_[s] = Slot{};
    while (at != kNil) {
      const std::uint32_t next = nodes_[at].next;
      place(at, nodes_[at].key);
      at = next;
    }
  }
}

std::uint32_t LfuCache::victim() const {
  const std::uint64_t mask = ring_.size() - 1;
  std::uint64_t key = aging_floor_;
  std::uint64_t lowest = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t step = 0; step < ring_.size(); ++step, ++key) {
    for (std::uint32_t at = ring_[key & mask].head; at != kNil; at = nodes_[at].next) {
      if (nodes_[at].key == key) return at;
      lowest = std::min(lowest, nodes_[at].key);
    }
  }
  // A whole turn met every live node, none at the keys it passed: the
  // lowest key it saw is the minimum, and its slot holds that key's head.
  std::uint32_t at = ring_[lowest & mask].head;
  while (nodes_[at].key != lowest) at = nodes_[at].next;
  return at;
}

}  // namespace webcache::cache
