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
  const std::uint32_t* at = lists_.find(object);
  if (at == nullptr) throw std::logic_error("GreedyDualCache::access: object not cached");
  obs_hit();
  // A hit restores the credit to the (inflated) cost; the old value is
  // irrelevant, so the node just moves to the tail of its new cost's list.
  const std::uint32_t node = *at;
  lists_.unlink(node);
  place(node, cost);
}

InsertResult GreedyDualCache::insert(ObjectNum object, double cost) {
  check_cost(cost, "GreedyDualCache::insert: cost must be >= 0");
  // Not contains(): LruCache derives from this class, so that is a virtual call.
  if (lists_.find(object) != nullptr) {
    throw std::logic_error("GreedyDualCache::insert: object already cached");
  }
  if (capacity_ == 0) return {};

  InsertResult result;
  result.inserted = true;
  obs_inserted();
  if (lists_.size() >= capacity_) {
    // The victim's node is freed, and the newcomer takes it back below.
    const std::uint32_t v = victim();
    // Deduct the minimum credit from everyone by raising the floor.
    inflation_ = lists_.node(v).credit;
    result.evicted = lists_.node(v).object;
    lists_.erase(v);
    obs_evicted();
  }
  place(lists_.insert(object), cost);
  return result;
}

bool GreedyDualCache::erase(ObjectNum object) {
  const std::uint32_t* at = lists_.find(object);
  if (at == nullptr) return false;
  lists_.erase(*at);
  return true;
}

std::optional<ObjectNum> GreedyDualCache::peek_victim() const {
  if (lists_.size() == 0) return std::nullopt;
  return lists_.node(victim()).object;
}

std::vector<ObjectNum> GreedyDualCache::contents() const { return lists_.objects(); }

double GreedyDualCache::credit(ObjectNum object) const {
  const std::uint32_t* at = lists_.find(object);
  return at == nullptr ? 0.0 : lists_.node(*at).credit - inflation_;
}

void GreedyDualCache::place(std::uint32_t at, double cost) {
  // Find the cost's list, or reuse an emptied one, or open a new one. The
  // node is already unlinked, so a list it alone held counts as emptied.
  std::uint32_t list = Lists::kNil;
  std::uint32_t spare = Lists::kNil;
  for (std::uint32_t i = 0; i < costs_.size(); ++i) {
    if (costs_[i] == cost) {
      list = i;
      break;
    }
    if (spare == Lists::kNil && lists_.list(i).head == Lists::kNil) spare = i;
  }
  if (list == Lists::kNil) {
    if (spare == Lists::kNil) {
      spare = static_cast<std::uint32_t>(costs_.size());
      costs_.emplace_back();
      lists_.resize_lists(costs_.size());
    }
    list = spare;
    costs_[list] = cost;
  }

  Lists::Node& n = lists_.node(at);
  n.credit = cost + inflation_;
  n.seq = ++seq_;
  lists_.append(at, list);
}

std::uint32_t GreedyDualCache::victim() const {
  std::uint32_t best = Lists::kNil;
  for (std::uint32_t l = 0; l < costs_.size(); ++l) {
    const std::uint32_t head = lists_.list(l).head;
    if (head == Lists::kNil) continue;
    const Lists::Node& h = lists_.node(head);
    if (best == Lists::kNil || h.credit < lists_.node(best).credit ||
        (h.credit == lists_.node(best).credit && h.seq < lists_.node(best).seq)) {
      best = head;
    }
  }
  return best;
}

}  // namespace webcache::cache
