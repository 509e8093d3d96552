// Position-indexed 4-ary min-heap for cache eviction orderings.
//
// CostBenefitCache keeps its victim order here. It is the one policy that
// needs a real priority queue: the coordinator reprices cached copies up and
// down (replica counts, clairvoyant decay). LFU-DA and greedy-dual do not:
// each has a floor that never falls, which makes O(1) FIFO lists exact for
// them (one per live key, one per cost; see lfu.hpp and greedy_dual.hpp).
//
// The order used to live in a std::set<tuple> — a red-black tree that pays
// a node allocation per insert and pointer-chasing erase+insert on *every
// hit*. An earlier replacement
// used a lazy-deletion binary heap (push a fresh node per re-key, skip stale
// nodes when they surface); profiling showed the stale-purge pops and
// periodic compactions dominating, so the heap is now fully indexed: an
// ObjectIndex maps each object to its node's position, re-keys sift the
// node in place, and erase swaps the last node into the hole. No stale nodes
// ever exist, so top() is O(1) and memory is exactly one node (priority and
// object id) per live entry. The 4-ary layout halves the tree depth of a
// binary heap; sift costs stay O(log n) over one contiguous vector with no
// allocation beyond its growth.
//
// Victim selection is bit-identical to the ordered-set implementation: every
// priority embeds the policy's monotone re-key sequence number, so priorities
// of distinct objects never compare equal and the minimum node is exactly
// the element std::set::begin() would have produced — including all
// tie-breaks (e.g. equal cost-benefit values after decay to zero). The
// heap's internal layout never influences which object is the minimum.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/object_index.hpp"
#include "common/types.hpp"

namespace webcache::cache {

/// `Priority` must be default-constructible, cheaply copyable and totally
/// ordered by operator< across live entries (pairs/tuples of arithmetic
/// types; no NaNs). Smaller priority = evicted first.
template <typename Priority>
class EvictionHeap {
 public:
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Switches the position index to its direct-indexed form (see
  /// ObjectIndex): the heap may hold a universe-scale population (a proxy
  /// cache, not a 5-entry client cache). Victim order is unaffected.
  void reserve_universe(std::size_t universe) { pos_.reserve_universe(universe); }

  [[nodiscard]] bool contains(ObjectNum object) const { return pos_.find(object) != nullptr; }

  /// Priority of `object`, or nullptr when absent. Valid until the next
  /// mutation.
  [[nodiscard]] const Priority* find(ObjectNum object) const {
    const std::uint32_t* at = pos_.find(object);
    return at == nullptr ? nullptr : &nodes_[*at].priority;
  }

  /// Calls fn(object, priority) for every live entry, in heap-layout order
  /// (which no policy decision depends on). Must not mutate the heap.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Node& node : nodes_) fn(node.object, node.priority);
  }

  /// Inserts `object`, which must be absent: the caches check their
  /// insert contract first, so this path probes the index no second time.
  void insert(ObjectNum object, const Priority& priority) {
    const auto at = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({priority, object});
    pos_.set(object, at);
    sift_up(at);
  }

  /// Re-keys `object`, which must be present, to `priority`.
  void set(ObjectNum object, const Priority& priority) {
    const std::uint32_t* at = pos_.find(object);
    assert(at != nullptr && "EvictionHeap::set: object absent");
    nodes_[*at].priority = priority;
    sift(*at);
  }

  /// Removes `object`. Returns true if it was present.
  bool erase(ObjectNum object) {
    const std::uint32_t* at = pos_.find(object);
    if (at == nullptr) return false;
    remove_at(*at);
    return true;
  }

  /// Minimum-priority entry. Precondition: !empty().
  [[nodiscard]] std::pair<Priority, ObjectNum> top() const {
    return {nodes_.front().priority, nodes_.front().object};
  }

  /// Removes the minimum-priority entry. Precondition: !empty().
  void pop() { remove_at(0); }

 private:
  struct Node {
    Priority priority;
    ObjectNum object;
  };

  static constexpr std::uint32_t kArity = 4;

  void remove_at(std::uint32_t at) {
    pos_.erase(nodes_[at].object);
    const auto last = static_cast<std::uint32_t>(nodes_.size() - 1);
    if (at != last) {
      nodes_[at] = nodes_[last];
      nodes_.pop_back();
      pos_.set(nodes_[at].object, at);
      sift(at);  // the relocated node may belong above or below the hole
    } else {
      nodes_.pop_back();
    }
  }

  /// Restores the heap property at `at` after an arbitrary priority change.
  void sift(std::uint32_t at) {
    if (at > 0 && nodes_[at].priority < nodes_[(at - 1) / kArity].priority) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }

  void sift_up(std::uint32_t at) {
    const Node moving = nodes_[at];
    while (at > 0) {
      const std::uint32_t parent = (at - 1) / kArity;
      if (!(moving.priority < nodes_[parent].priority)) break;
      nodes_[at] = nodes_[parent];
      pos_.set(nodes_[at].object, at);
      at = parent;
    }
    nodes_[at] = moving;
    pos_.set(moving.object, at);
  }

  void sift_down(std::uint32_t at) {
    const Node moving = nodes_[at];
    const auto count = static_cast<std::uint32_t>(nodes_.size());
    for (;;) {
      const std::uint64_t first = std::uint64_t{at} * kArity + 1;
      if (first >= count) break;
      const std::uint32_t end =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(first + kArity, count));
      std::uint32_t best = static_cast<std::uint32_t>(first);
      for (std::uint32_t c = best + 1; c < end; ++c) {
        if (nodes_[c].priority < nodes_[best].priority) best = c;
      }
      if (!(nodes_[best].priority < moving.priority)) break;
      nodes_[at] = nodes_[best];
      pos_.set(nodes_[at].object, at);
      at = best;
    }
    nodes_[at] = moving;
    pos_.set(moving.object, at);
  }

  ObjectIndex pos_;  ///< object -> index into nodes_
  std::vector<Node> nodes_;
};

}  // namespace webcache::cache
