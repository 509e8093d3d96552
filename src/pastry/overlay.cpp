#include "pastry/overlay.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace webcache::pastry {

double proximity(const Coordinates& a, const Coordinates& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Coordinates default_coordinates(const NodeId& id) {
  // Hash the id into the unit square; independent of the ring position so
  // id-space neighbours are not network neighbours (the realistic case).
  Uint128Hash h;
  const auto a = static_cast<std::uint32_t>(h(id));
  const auto b = static_cast<std::uint32_t>(h(id ^ Uint128{0x5bd1e995u, 0x9e3779b9u}));
  return Coordinates{static_cast<double>(a) / 4294967296.0,
                     static_cast<double>(b) / 4294967296.0};
}

Overlay::Overlay(OverlayConfig config, obs::Registry* registry, const std::string& prefix)
    : config_(config), counters_(obs::ensure_registry(registry, owned_registry_), prefix) {
  // Validate eagerly via throwaway component construction.
  RoutingTable probe_table(NodeId{}, config_.bits_per_digit);
  LeafSet probe_leaves(NodeId{}, config_.leaf_set_size);
}

const Overlay::Node& Overlay::node_of(const NodeId& id) const {
  const auto slot = live_slot(id);
  if (!slot) throw std::out_of_range("Overlay: unknown or dead node");
  return nodes_[*slot];
}

std::vector<NodeId> Overlay::nodes() const {
  std::vector<NodeId> out;
  out.reserve(sorted_.size());
  for (const auto& e : sorted_) out.push_back(e.id);
  return out;
}

unsigned Overlay::expected_hop_bound() const {
  if (sorted_.size() <= 1) return 0;
  const double base = static_cast<double>(1u << config_.bits_per_digit);
  return static_cast<unsigned>(
      std::ceil(std::log(static_cast<double>(sorted_.size())) / std::log(base)));
}

const Overlay::RingEntry& Overlay::root_entry(const Uint128& key) const {
  if (sorted_.empty()) throw std::logic_error("Overlay::root_of: empty overlay");
  const auto it = std::ranges::lower_bound(sorted_, key, {}, &RingEntry::id);
  // Candidates: successor (with wrap) and predecessor (with wrap).
  const RingEntry& succ = (it == sorted_.end()) ? sorted_.front() : *it;
  const RingEntry& pred = (it == sorted_.begin()) ? sorted_.back() : *std::prev(it);
  return closer_to(key, pred.id, succ.id) ? pred : succ;
}

NodeId Overlay::root_of(const Uint128& key) const { return root_entry(key).id; }

std::uint32_t Overlay::slot_of(const NodeId& id) const {
  const auto it = slot_ids_.find(id);
  if (it == slot_ids_.end()) throw std::out_of_range("Overlay::slot_of: unknown node id");
  return it->second;
}

void Overlay::rebuild_leaf_set(Node& node) {
  LeafSet fresh(node.leaves.owner(), config_.leaf_set_size);
  const NodeId owner = node.leaves.owner();
  const unsigned per_side = config_.leaf_set_size / 2;

  // Walk the sorted ring outward from the owner in both directions.
  auto fwd = std::ranges::upper_bound(sorted_, owner, {}, &RingEntry::id);
  for (unsigned i = 0; i < per_side && sorted_.size() > 1; ++i) {
    if (fwd == sorted_.end()) fwd = sorted_.begin();
    if (fwd->id == owner) break;  // wrapped all the way around
    fresh.insert(fwd->id);
    ++fwd;
  }
  auto bwd = std::ranges::lower_bound(sorted_, owner, {}, &RingEntry::id);
  for (unsigned i = 0; i < per_side && sorted_.size() > 1; ++i) {
    if (bwd == sorted_.begin()) bwd = sorted_.end();
    --bwd;
    if (bwd->id == owner) break;
    fresh.insert(bwd->id);
  }
  node.leaves = fresh;
}

bool Overlay::refill_slot(Node& node, unsigned row, unsigned column) {
  const NodeId owner = node.table.owner();
  const unsigned b = config_.bits_per_digit;

  // Id interval of nodes that share the first `row` digits with the owner
  // and have digit `column` at position `row`.
  const unsigned keep_shift = 128 - row * b;  // bits of owner prefix to keep
  const Uint128 kept = row == 0 ? Uint128{} : (owner >> keep_shift) << keep_shift;
  const unsigned digit_shift = 128 - (row + 1) * b;
  const Uint128 lo = kept | (Uint128{0, column} << digit_shift);
  const Uint128 mask = digit_shift == 0 ? Uint128{} : ((Uint128{0, 1} << digit_shift) - Uint128{0, 1});
  const Uint128 hi = lo | mask;

  // Of the live nodes in [lo, hi] other than the owner, install the
  // numerically first — or, under proximity routing (Pastry's locality
  // heuristic), the one nearest to the owner in the proximity space.
  const NodeId* best = nullptr;
  double best_distance = 0.0;
  for (auto it = std::ranges::lower_bound(sorted_, lo, {}, &RingEntry::id);
       it != sorted_.end() && it->id <= hi; ++it) {
    if (it->id == owner) continue;
    if (!config_.proximity_routing) {
      best = &it->id;
      break;
    }
    const double d = proximity(node.coords, nodes_[it->slot].coords);
    if (best == nullptr || d < best_distance) {
      best = &it->id;
      best_distance = d;
    }
  }
  if (best == nullptr) return false;
  return node.table.insert(*best, /*replace=*/true);
}

std::uint32_t Overlay::add_node(const NodeId& id) {
  return add_node(id, default_coordinates(id));
}

const Coordinates& Overlay::coordinates_of(const NodeId& id) const {
  return node_of(id).coords;
}

std::uint32_t Overlay::add_node(const NodeId& id, const Coordinates& where) {
  // Permanent slot: a rejoining id gets its old slot (and entry) back, a new
  // id the next sequential one, so slot-indexed arrays outside the overlay
  // stay valid across churn.
  const auto [slot_it, fresh] =
      slot_ids_.try_emplace(id, static_cast<std::uint32_t>(nodes_.size()));
  const std::uint32_t slot = slot_it->second;
  if (fresh) {
    nodes_.emplace_back(id, config_, where);
  } else if (nodes_[slot].alive) {
    throw std::invalid_argument("Overlay: duplicate node id");
  } else {
    nodes_[slot] = Node(id, config_, where);
  }
  Node& self = nodes_[slot];
  sorted_.insert(std::ranges::lower_bound(sorted_, id, {}, &RingEntry::id), RingEntry{id, slot});
  ++topology_version_;

  // Newcomer state: the join protocol copies routing rows from the nodes on
  // the join path and the leaf set from the root; the converged result is
  // what we install directly.
  rebuild_leaf_set(self);
  for (unsigned row = 0; row < self.table.rows(); ++row) {
    for (unsigned col = 0; col < self.table.columns(); ++col) {
      refill_slot(self, row, col);
    }
    // Once the owner is the only node sharing this prefix length, deeper
    // rows can only ever contain the owner itself; stop early.
    const unsigned b = config_.bits_per_digit;
    const unsigned keep_shift = 128 - (row + 1) * b;
    const Uint128 kept = (id >> keep_shift) << keep_shift;
    const Uint128 hi = kept | (keep_shift == 0
                                   ? Uint128{}
                                   : ((Uint128{0, 1} << keep_shift) - Uint128{0, 1}));
    const auto sharing = std::ranges::upper_bound(sorted_, hi, {}, &RingEntry::id) -
                         std::ranges::lower_bound(sorted_, kept, {}, &RingEntry::id);
    if (sharing == 1) break;
  }

  // Existing nodes learn about the newcomer: neighbors adjust leaf sets and
  // everyone fills the matching routing slot (steady state of Pastry's join
  // announcement). A crashed incumbent must not keep the slot: leaving the
  // dead reference in place and the newcomer unknown would point later
  // routes through this slot at a guaranteed timeout, so dead incumbents are
  // evicted (and the repair counted). Under proximity routing, a newcomer
  // closer than a live incumbent also replaces it (Pastry's routing-table
  // optimization); otherwise live incumbents stay.
  for (const auto& entry : sorted_) {
    if (entry.slot == slot) continue;
    Node& other = nodes_[entry.slot];
    other.leaves.insert(id);
    const auto [row, column] = other.table.slot_of(id).value();
    const auto incumbent = other.table.entry(row, column);
    const auto incumbent_slot = incumbent ? live_slot(*incumbent) : std::nullopt;
    const bool incumbent_dead = incumbent && !incumbent_slot;
    const bool closer = config_.proximity_routing && incumbent_slot &&
                        proximity(other.coords, self.coords) <
                            proximity(other.coords, nodes_[*incumbent_slot].coords);
    other.table.insert(id, incumbent_dead || closer);
    if (incumbent_dead) counters_.repairs.inc();
  }
  return slot;
}

void Overlay::leave(const NodeId& id) {
  const auto slot = live_slot(id);
  if (!slot) throw std::invalid_argument("Overlay: unknown node id");
  nodes_[*slot].alive = false;
  sorted_.erase(std::ranges::lower_bound(sorted_, id, {}, &RingEntry::id));
  ++topology_version_;
}

void Overlay::remove_node(const NodeId& id) {
  leave(id);
  // Graceful leave: departure is announced, peers repair immediately.
  for (const auto& entry : sorted_) {
    Node& other = nodes_[entry.slot];
    if (other.leaves.erase(id)) rebuild_leaf_set(other);
    if (const auto slot = other.table.slot_of(id);
        slot && other.table.entry(slot->first, slot->second) == std::optional<NodeId>(id)) {
      other.table.erase(id);
      refill_slot(other, slot->first, slot->second);
      counters_.repairs.inc();
    }
  }
}

void Overlay::fail_node(const NodeId& id) {
  // Crash: the node vanishes from the live set but peers keep stale
  // references until they detect the failure. Its entry keeps the
  // coordinates (a machine's network position survives its crash), and
  // joins consult only live entries, so they never pick the dead node as a
  // "nearby" incumbent.
  leave(id);
  stale_possible_ = true;
}

void Overlay::rejoin_node(const NodeId& id) {
  const auto it = slot_ids_.find(id);
  const Coordinates where =
      it != slot_ids_.end() ? nodes_[it->second].coords : default_coordinates(id);
  add_node(id, where);  // throws if the id is still alive
}

void Overlay::repair_all() {
  for (const auto& entry : sorted_) {
    Node& node = nodes_[entry.slot];
    // Prune dead leaf references, then rebuild from the live ring.
    bool leaf_dirty = false;
    for (const auto& member : node.leaves.members()) {
      if (!contains(member)) {
        node.leaves.erase(member);
        leaf_dirty = true;
      }
    }
    if (leaf_dirty) {
      rebuild_leaf_set(node);
      counters_.repairs.inc();
    }
    // Rows past the allocated ones hold no entry (a refill stays in its row).
    for (unsigned row = 0; row < node.table.allocated_rows(); ++row) {
      for (unsigned col = 0; col < node.table.columns(); ++col) {
        const auto e = node.table.entry(row, col);
        if (e && !contains(*e)) {
          node.table.erase(*e);
          refill_slot(node, row, col);
          counters_.repairs.inc();
        }
      }
    }
  }
  // Every live node has now been purged of dead references, so routing can
  // drop back to the stale-free fast path.
  stale_possible_ = false;
  ++topology_version_;
}

void Overlay::on_dead_reference(Node& holder, const NodeId& dead) {
  counters_.dead_hop_detections.inc();
  ++topology_version_;
  const auto slot = holder.table.slot_of(dead);
  holder.table.erase(dead);
  // Install a replacement right away (Pastry's routing-table repair).
  if (holder.leaves.erase(dead)) rebuild_leaf_set(holder);
  if (slot) refill_slot(holder, slot->first, slot->second);
  counters_.repairs.inc();
}

RouteResult Overlay::route(const NodeId& from, const Uint128& key) {
  const auto origin = live_slot(from);
  if (!origin) throw std::invalid_argument("Overlay::route: dead origin");
  return route_from(*origin, key);
}

RouteResult Overlay::route(std::uint32_t from_slot, const Uint128& key) {
  if (!slot_alive(from_slot)) throw std::invalid_argument("Overlay::route: dead origin");
  return route_from(from_slot, key);
}

RouteResult Overlay::route_from(std::uint32_t origin, const Uint128& key) {
  // The ground-truth root is fixed for the whole route: forwarding never
  // changes membership (dead-reference repairs only touch tables and leaf
  // sets), so one lookup serves both the leaf-set fast path and the final
  // success check.
  const RingEntry root = root_entry(key);

  std::uint32_t slot = origin;
  Node* node = &nodes_[origin];  // the table never grows while routing
  NodeId current = node->table.owner();
  unsigned hops = 0;
  double travelled = 0.0;
  const auto forward_to = [&](std::uint32_t next, const NodeId& next_id) {
    Node& next_node = nodes_[next];
    assert(next_node.alive && "Overlay::route: forwarding to a dead node");
    travelled += proximity(node->coords, next_node.coords);
    slot = next;
    node = &next_node;
    current = next_id;
    ++hops;
  };
  // Every forwarding target is live: stale references are checked before
  // they are chosen, and without a crash since the last repair there are
  // none.
  const auto forward = [&](const NodeId& next) { forward_to(slot_of(next), next); };
  // Lowers `best` to the closest live leaf-set member and collects the stale
  // members in `dead`.
  const auto scan_live_leaves = [&](NodeId& best, std::vector<NodeId>& dead) {
    node->leaves.visit_members([&](const NodeId& member) {
      if (!contains(member)) {
        dead.push_back(member);
      } else if (closer_to(key, member, best)) {
        best = member;
      }
      return false;
    });
  };
  constexpr unsigned kMaxHops = 256;  // loop guard; never hit in practice

  while (hops < kMaxHops) {
    // (1) Leaf-set delivery: key within the leaf span ends routing at the
    // numerically closest live member.
    if (node->leaves.covers(key)) {
      if (!stale_possible_) {
        // No crash since the last repair pass, so leaf sets are exactly the
        // nearest-per-side live nodes: every node in the covered arc is a
        // member, which makes the closest member *the global root* — found
        // by binary search instead of a member-by-member distance scan. The
        // root's own leaf set covers the key too, so routing ends there.
        if (root.id != current) forward_to(root.slot, root.id);
        break;
      }
      // Scan for the closest live member; collect stale references.
      NodeId best = current;
      std::vector<NodeId> dead;
      scan_live_leaves(best, dead);
      for (const auto& d : dead) on_dead_reference(*node, d);
      if (best == current) break;  // delivered locally
      forward(best);
      continue;
    }

    // (2) Prefix routing: forward to the table entry matching one more digit.
    auto next = node->table.next_hop(key);
    if (stale_possible_ && next && !contains(*next)) {
      on_dead_reference(*node, *next);
      next = node->table.next_hop(key);  // may have been refilled
      if (next && !contains(*next)) next.reset();
    }
    if (next) {
      forward(*next);
      continue;
    }

    // (3) Rare case: no matching entry. Forward to any known live node
    // strictly closer to the key than the current node.
    NodeId best = current;
    if (!stale_possible_) {
      best = node->leaves.closest_to(key);
      node->table.for_each_populated([&](const NodeId& entry) {
        if (closer_to(key, entry, best)) best = entry;
      });
    } else {
      std::vector<NodeId> dead;
      scan_live_leaves(best, dead);
      node->table.for_each_populated([&](const NodeId& entry) {
        if (!contains(entry)) {
          dead.push_back(entry);
          return;
        }
        if (closer_to(key, entry, best)) best = entry;
      });
      for (const auto& d : dead) on_dead_reference(*node, d);
    }
    if (best == current) break;  // best effort delivery at a local optimum
    forward(best);
    counters_.fallback_hops.inc();
  }

  counters_.messages_routed.inc();
  counters_.total_hops.inc(hops);
  counters_.hops.add(static_cast<double>(hops));
  return RouteResult{current, slot, hops, current == root.id, travelled};
}

const LeafSet& Overlay::leaf_set(const NodeId& id) const { return node_of(id).leaves; }

const RoutingTable& Overlay::routing_table(const NodeId& id) const {
  return node_of(id).table;
}

}  // namespace webcache::pastry
