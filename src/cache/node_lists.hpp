// Object-indexed FIFO lists over one recycled node pool: the store under
// every list-ordered eviction policy. LFU-DA keeps one list per ring slot,
// greedy-dual (and so LRU) one per cost, ARC its T1, T2, B1 and B2 lists and
// W-TinyLFU its window, probation and protected segments; each policy picks
// the list and the head to evict, and the store keeps nodes, links and the
// object -> node index. Lists link 32-bit node numbers, head = oldest; a
// node leaves from anywhere in O(1). An erased node heads the free chain the
// next insert takes from, so an eviction's insert reuses the victim's node.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "cache/object_index.hpp"
#include "common/types.hpp"

namespace webcache::cache {

/// `Payload` is the policy's per-entry state, an empty struct when the list
/// an entry sits in says everything. `kCounted` keeps a size per list for
/// the policies whose decisions read one (ARC, W-TinyLFU); the others find an
/// empty list by its head and pay no counter on the hot path.
template <typename Payload, bool kCounted = false>
class NodeLists {
  struct Uncounted {};
  struct Counted {
    std::uint32_t size = 0;  ///< linked nodes
  };

 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Aligned so no node straddles two cache lines.
  struct alignas(32) Node : Payload {
    ObjectNum object = 0;
    std::uint32_t list = kNil;  ///< the list holding the node (stale while unlinked)
    std::uint32_t prev = kNil;  ///< neighbours in that list
    std::uint32_t next = kNil;  ///< (next also links the free nodes)
  };
  static_assert(sizeof(Node) == 32);

  struct List : std::conditional_t<kCounted, Counted, Uncounted> {
    std::uint32_t head = kNil;  ///< oldest entry, kNil when empty
    std::uint32_t tail = kNil;
  };

  explicit NodeLists(std::size_t lists = 0) : lists_(lists) {}

  /// Live nodes: inserted and not yet erased, linked or not.
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t list_count() const { return lists_.size(); }
  /// Adds empty lists up to `lists`.
  void resize_lists(std::size_t lists) { lists_.resize(lists); }

  /// Node of `object`, or nullptr when absent. Valid until the next mutation.
  [[nodiscard]] const std::uint32_t* find(ObjectNum object) const { return index_.find(object); }
  [[nodiscard]] Node& node(std::uint32_t at) { return nodes_[at]; }
  [[nodiscard]] const Node& node(std::uint32_t at) const { return nodes_[at]; }
  [[nodiscard]] const List& list(std::uint32_t l) const { return lists_[l]; }

  /// Indexes `object`, which must be absent, at a node it returns unlinked.
  std::uint32_t insert(ObjectNum object) {
    std::uint32_t at = free_;
    if (at == kNil) {
      at = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      free_ = nodes_[at].next;
    }
    nodes_[at].object = object;
    index_.set(object, at);
    ++live_;
    return at;
  }

  /// Unlinks the linked node `at`, drops its object from the index and frees
  /// the node.
  void erase(std::uint32_t at) {
    unlink(at);
    index_.erase(nodes_[at].object);
    nodes_[at].next = free_;
    free_ = at;
    --live_;
  }

  /// Links the unlinked node `at` at the tail of list `l`.
  void append(std::uint32_t at, std::uint32_t l) {
    Node& n = nodes_[at];
    List& to = lists_[l];
    n.list = l;
    n.prev = to.tail;
    n.next = kNil;
    (to.tail == kNil ? to.head : nodes_[to.tail].next) = at;
    to.tail = at;
    if constexpr (kCounted) ++to.size;
  }

  void unlink(std::uint32_t at) {
    Node& n = nodes_[at];
    List& from = lists_[n.list];
    (n.prev == kNil ? from.head : nodes_[n.prev].next) = n.next;
    (n.next == kNil ? from.tail : nodes_[n.next].prev) = n.prev;
    if constexpr (kCounted) --from.size;
  }

  /// Moves node `at` to the tail of list `l`, which may be its own.
  void move(std::uint32_t at, std::uint32_t l) {
    unlink(at);
    append(at, l);
  }

  /// Empties list `l` and returns its old head: a chain, oldest first, whose
  /// next links stay valid for the caller to append every node elsewhere.
  std::uint32_t take(std::uint32_t l) {
    const std::uint32_t head = lists_[l].head;
    lists_[l] = List{};
    return head;
  }

  /// Visits list `l` oldest first: fn(const Node&).
  template <typename Fn>
  void for_each(std::uint32_t l, Fn&& fn) const {
    for (std::uint32_t at = lists_[l].head; at != kNil; at = nodes_[at].next) fn(nodes_[at]);
  }

  /// Every linked object, list by list in index order, each oldest first.
  [[nodiscard]] std::vector<ObjectNum> objects() const {
    std::vector<ObjectNum> out;
    out.reserve(live_);
    for (std::uint32_t l = 0; l < lists_.size(); ++l) {
      for_each(l, [&out](const Node& n) { out.push_back(n.object); });
    }
    return out;
  }

  /// Switches the index to its direct form (ObjectIndex::reserve_universe).
  void reserve_universe(std::size_t universe) { index_.reserve_universe(universe); }

 private:
  std::vector<Node> nodes_;
  std::vector<List> lists_;
  std::uint32_t free_ = kNil;  ///< head of the free-node chain
  std::size_t live_ = 0;
  ObjectIndex index_;  ///< object -> node
};

}  // namespace webcache::cache
