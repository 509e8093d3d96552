#include "cache/greedy_dual.hpp"

#include <stdexcept>

namespace webcache::cache {

namespace {

/// The per-cost lists stay sorted only for costs >= 0 (a negative cost
/// could undercut the inflation floor); NaN would break the order outright.
void check_cost(double cost, const char* what) {
  if (!(cost >= 0.0)) throw std::invalid_argument(what);
}

}  // namespace

void GreedyDualCache::access(ObjectNum object, double cost) {
  check_cost(cost, "GreedyDualCache::access: cost must be >= 0");
  const std::uint32_t* at = index_.find(object);
  if (at == nullptr) throw std::logic_error("GreedyDualCache::access: object not cached");
  obs_hit();
  // A hit restores the credit to the (inflated) cost; the old value is
  // irrelevant, so the node just moves to the tail of its new cost's list.
  const std::uint32_t node = *at;
  unlink(node);
  place(node, cost);
}

InsertResult GreedyDualCache::insert(ObjectNum object, double cost) {
  check_cost(cost, "GreedyDualCache::insert: cost must be >= 0");
  if (index_.find(object) != nullptr) {
    throw std::logic_error("GreedyDualCache::insert: object already cached");
  }
  if (capacity_ == 0) return {};

  InsertResult result;
  result.inserted = true;
  obs_inserted();
  std::uint32_t at;
  if (size_ >= capacity_) {
    // The victim's node is reused for the newcomer.
    at = victim();
    const Node& v = nodes_[at];
    // Deduct the minimum credit from everyone by raising the floor.
    inflation_ = v.credit;
    unlink(at);
    index_.erase(v.object);
    result.evicted = v.object;
    obs_evicted();
  } else if (free_ != kNil) {
    at = free_;
    free_ = nodes_[at].next;
    ++size_;
  } else {
    at = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    ++size_;
  }
  nodes_[at].object = object;
  place(at, cost);
  index_.set(object, at);
  return result;
}

bool GreedyDualCache::erase(ObjectNum object) {
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

std::optional<ObjectNum> GreedyDualCache::peek_victim() const {
  if (size_ == 0) return std::nullopt;
  return nodes_[victim()].object;
}

std::vector<ObjectNum> GreedyDualCache::contents() const {
  std::vector<ObjectNum> out;
  out.reserve(size_);
  for (const CostList& list : lists_) {
    for (std::uint32_t at = list.head; at != kNil; at = nodes_[at].next) {
      out.push_back(nodes_[at].object);
    }
  }
  return out;
}

double GreedyDualCache::credit(ObjectNum object) const {
  const std::uint32_t* at = index_.find(object);
  return at == nullptr ? 0.0 : nodes_[*at].credit - inflation_;
}

void GreedyDualCache::place(std::uint32_t at, double cost) {
  // Find the cost's list, or reuse an emptied one, or open a new one.
  std::uint32_t list = kNil;
  std::uint32_t spare = kNil;
  for (std::uint32_t i = 0; i < lists_.size(); ++i) {
    if (lists_[i].cost == cost) {
      list = i;
      break;
    }
    if (spare == kNil && lists_[i].head == kNil) spare = i;
  }
  if (list == kNil) {
    if (spare == kNil) {
      spare = static_cast<std::uint32_t>(lists_.size());
      lists_.emplace_back();
    }
    list = spare;
    lists_[list].cost = cost;
  }

  Node& n = nodes_[at];
  n.credit = cost + inflation_;
  n.seq = ++seq_;
  n.list = list;
  CostList& l = lists_[list];
  n.prev = l.tail;
  n.next = kNil;
  (l.tail == kNil ? l.head : nodes_[l.tail].next) = at;
  l.tail = at;
}

void GreedyDualCache::unlink(std::uint32_t at) {
  const Node& n = nodes_[at];
  CostList& l = lists_[n.list];
  (n.prev == kNil ? l.head : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? l.tail : nodes_[n.next].prev) = n.prev;
}

std::uint32_t GreedyDualCache::victim() const {
  std::uint32_t best = kNil;
  for (const CostList& l : lists_) {
    if (l.head == kNil) continue;
    const Node& h = nodes_[l.head];
    if (best == kNil || h.credit < nodes_[best].credit ||
        (h.credit == nodes_[best].credit && h.seq < nodes_[best].seq)) {
      best = l.head;
    }
  }
  return best;
}

}  // namespace webcache::cache
