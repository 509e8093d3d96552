#include "pastry/overlay.hpp"

#include <algorithm>
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

Overlay::NodeState& Overlay::state_of(const NodeId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) throw std::out_of_range("Overlay: unknown or dead node");
  return *it->second;
}

const Overlay::NodeState& Overlay::state_of(const NodeId& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) throw std::out_of_range("Overlay: unknown or dead node");
  return *it->second;
}

bool Overlay::contains(const NodeId& id) const { return alive(id); }

std::vector<NodeId> Overlay::nodes() const {
  std::vector<NodeId> out;
  out.reserve(ring_.size());
  for (const auto& [id, _] : ring_) out.push_back(id);
  return out;
}

unsigned Overlay::expected_hop_bound() const {
  if (ring_.size() <= 1) return 0;
  const double base = static_cast<double>(1u << config_.bits_per_digit);
  return static_cast<unsigned>(
      std::ceil(std::log(static_cast<double>(ring_.size())) / std::log(base)));
}

std::optional<NodeId> Overlay::first_alive_in(const Uint128& lo, const Uint128& hi) const {
  const auto it = ring_.lower_bound(lo);
  if (it != ring_.end() && it->first <= hi) return it->first;
  return std::nullopt;
}

const Overlay::RingEntry& Overlay::root_entry(const Uint128& key) const {
  if (sorted_.empty()) throw std::logic_error("Overlay::root_of: empty overlay");
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), key,
      [](const RingEntry& e, const Uint128& k) { return e.id < k; });
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

void Overlay::rebuild_leaf_set(NodeState& node) {
  LeafSet fresh(node.leaves.owner(), config_.leaf_set_size);
  const NodeId owner = node.leaves.owner();
  const unsigned per_side = config_.leaf_set_size / 2;

  // Walk the sorted ring outward from the owner in both directions.
  auto fwd = ring_.upper_bound(owner);
  for (unsigned i = 0; i < per_side && ring_.size() > 1; ++i) {
    if (fwd == ring_.end()) fwd = ring_.begin();
    if (fwd->first == owner) break;  // wrapped all the way around
    fresh.insert(fwd->first);
    ++fwd;
  }
  auto bwd = ring_.lower_bound(owner);
  for (unsigned i = 0; i < per_side && ring_.size() > 1; ++i) {
    if (bwd == ring_.begin()) bwd = ring_.end();
    --bwd;
    if (bwd->first == owner) break;
    fresh.insert(bwd->first);
  }
  node.leaves = fresh;
}

bool Overlay::refill_slot(NodeState& node, unsigned row, unsigned column) {
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

  if (config_.proximity_routing) {
    // Pastry's locality heuristic: of all id-eligible candidates, install
    // the one nearest to the owner in the proximity space.
    const NodeId* best = nullptr;
    double best_distance = 0.0;
    for (auto it = ring_.lower_bound(lo); it != ring_.end() && it->first <= hi; ++it) {
      if (it->first == owner) continue;
      const double d = proximity(node.coords, it->second.coords);
      if (best == nullptr || d < best_distance) {
        best = &it->first;
        best_distance = d;
      }
    }
    if (best == nullptr) return false;
    return node.table.insert(*best, /*replace=*/true);
  }

  auto candidate = first_alive_in(lo, hi);
  if (candidate && *candidate == owner) {
    // The owner itself occupies this range; look for the next live node.
    auto it = ring_.upper_bound(owner);
    if (it != ring_.end() && it->first <= hi) {
      candidate = it->first;
    } else {
      candidate.reset();
    }
  }
  if (!candidate) return false;
  return node.table.insert(*candidate, /*replace=*/true);
}

std::uint32_t Overlay::add_node(const NodeId& id) {
  return add_node(id, default_coordinates(id));
}

const Coordinates& Overlay::coordinates_of(const NodeId& id) const {
  return state_of(id).coords;
}

std::uint32_t Overlay::add_node(const NodeId& id, const Coordinates& where) {
  if (ring_.contains(id)) throw std::invalid_argument("Overlay: duplicate node id");
  auto [it, _] = ring_.emplace(id, NodeState(id, config_, where));
  NodeState& self = it->second;
  index_.emplace(id, &self);
  // Permanent slot: a rejoining id gets its old slot back, a new id the next
  // sequential one, so slot-indexed arrays outside the overlay stay valid
  // across churn.
  const auto [slot_it, fresh] =
      slot_ids_.emplace(id, static_cast<std::uint32_t>(slots_.size()));
  self.slot = slot_it->second;
  if (fresh) slots_.push_back(nullptr);
  slots_[self.slot] = &self;
  const auto pos = std::lower_bound(
      sorted_.begin(), sorted_.end(), id,
      [](const RingEntry& e, const NodeId& k) { return e.id < k; });
  sorted_.insert(pos, RingEntry{id, &self});
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
    auto lo_it = ring_.lower_bound(kept);
    auto next = lo_it;
    bool only_self = true;
    for (; next != ring_.end() && next->first <= hi; ++next) {
      if (next->first != id) {
        only_self = false;
        break;
      }
    }
    if (only_self) break;
  }

  // Existing nodes learn about the newcomer: neighbors adjust leaf sets and
  // everyone fills the matching empty routing slot (steady state of Pastry's
  // join announcement). Under proximity routing, a newcomer closer than the
  // incumbent also replaces it (Pastry's routing-table optimization).
  for (auto& [other_id, other] : ring_) {
    if (other_id == id) continue;
    other.leaves.insert(id);
    if (config_.proximity_routing) {
      if (const auto slot = other.table.slot_of(id)) {
        const auto incumbent = other.table.entry(slot->first, slot->second);
        bool replace = false;
        bool incumbent_dead = false;
        if (incumbent) {
          const auto inc_it = ring_.find(*incumbent);
          incumbent_dead = inc_it == ring_.end();
          replace = incumbent_dead ||
                    proximity(other.coords, self.coords) <
                        proximity(other.coords, inc_it->second.coords);
        }
        other.table.insert(id, replace);
        if (incumbent_dead) counters_.repairs.inc();
      }
    } else {
      // A crashed incumbent must not keep the slot: insert(replace=false)
      // would leave the dead reference in place and the newcomer unknown, so
      // later routes through this slot would hit a guaranteed timeout. Evict
      // dead incumbents here (and count the repair), keep live ones.
      const auto slot = other.table.slot_of(id);
      bool replace_dead = false;
      if (slot) {
        const auto incumbent = other.table.entry(slot->first, slot->second);
        replace_dead = incumbent.has_value() && !ring_.contains(*incumbent);
      }
      other.table.insert(id, replace_dead);
      if (replace_dead) counters_.repairs.inc();
    }
  }
  return self.slot;
}

void Overlay::remove_node(const NodeId& id) {
  const auto it = ring_.find(id);
  if (it == ring_.end()) throw std::invalid_argument("Overlay: unknown node id");
  slots_[it->second.slot] = nullptr;
  ring_.erase(it);
  index_.erase(id);
  sorted_.erase(std::lower_bound(
      sorted_.begin(), sorted_.end(), id,
      [](const RingEntry& e, const NodeId& k) { return e.id < k; }));
  ++topology_version_;
  // Graceful leave: departure is announced, peers repair immediately.
  for (auto& [other_id, other] : ring_) {
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
  const auto it = ring_.find(id);
  if (it == ring_.end()) throw std::invalid_argument("Overlay: unknown node id");
  // The node's proximity coordinates must leave the live tables with it —
  // otherwise a later join could pick the dead node as a "nearby" incumbent.
  // They are archived (a machine's network position survives its crash) so a
  // rejoin comes back at the same spot.
  failed_coords_.insert_or_assign(id, it->second.coords);
  // Crash: the node vanishes from the live set but peers keep stale
  // references until they detect the failure.
  slots_[it->second.slot] = nullptr;
  ring_.erase(it);
  index_.erase(id);
  sorted_.erase(std::lower_bound(
      sorted_.begin(), sorted_.end(), id,
      [](const RingEntry& e, const NodeId& k) { return e.id < k; }));
  stale_possible_ = true;
  ++topology_version_;
}

void Overlay::rejoin_node(const NodeId& id) {
  const auto arch = failed_coords_.find(id);
  const Coordinates where =
      arch != failed_coords_.end() ? arch->second : default_coordinates(id);
  add_node(id, where);  // throws if the id is still alive
  failed_coords_.erase(id);
}

void Overlay::repair_all() {
  for (auto& [id, node] : ring_) {
    // Prune dead leaf references, then rebuild from the live ring.
    bool leaf_dirty = false;
    for (const auto& member : node.leaves.members()) {
      if (!ring_.contains(member)) {
        node.leaves.erase(member);
        leaf_dirty = true;
      }
    }
    if (leaf_dirty) {
      rebuild_leaf_set(node);
      counters_.repairs.inc();
    }
    for (unsigned row = 0; row < node.table.rows(); ++row) {
      for (unsigned col = 0; col < node.table.columns(); ++col) {
        const auto e = node.table.entry(row, col);
        if (e && !ring_.contains(*e)) {
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

void Overlay::on_dead_reference(NodeState& holder, const NodeId& dead) {
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
  const auto origin = index_.find(from);
  if (origin == index_.end()) throw std::invalid_argument("Overlay::route: dead origin");
  return route_from(origin->second, key);
}

RouteResult Overlay::route(std::uint32_t from_slot, const Uint128& key) {
  NodeState* origin = from_slot < slots_.size() ? slots_[from_slot] : nullptr;
  if (origin == nullptr) throw std::invalid_argument("Overlay::route: dead origin");
  return route_from(origin, key);
}

RouteResult Overlay::route_from(NodeState* origin, const Uint128& key) {
  // The ground-truth root is fixed for the whole route: forwarding never
  // changes membership (dead-reference repairs only touch tables and leaf
  // sets), so one lookup serves both the leaf-set fast path and the final
  // success check.
  const RingEntry root = root_entry(key);

  NodeId current = origin->table.owner();
  NodeState* node = origin;  // carried across hops; map nodes are stable
  unsigned hops = 0;
  double travelled = 0.0;
  const auto forward_to = [&](const NodeId& next_id, NodeState& next_state) {
    travelled += proximity(node->coords, next_state.coords);
    current = next_id;
    node = &next_state;
    ++hops;
  };
  const auto forward = [&](const NodeId& next) { forward_to(next, state_of(next)); };
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
        if (root.id != current) forward_to(root.id, *root.state);
        break;
      }
      // Scan for the closest live member; collect stale references.
      NodeId best = current;
      std::vector<NodeId> dead;
      node->leaves.visit_members([&](const NodeId& member) {
        if (!alive(member)) {
          dead.push_back(member);
        } else if (closer_to(key, member, best)) {
          best = member;
        }
        return false;
      });
      for (const auto& d : dead) on_dead_reference(*node, d);
      if (best == current) break;  // delivered locally
      forward(best);
      continue;
    }

    // (2) Prefix routing: forward to the table entry matching one more digit.
    auto next = node->table.next_hop(key);
    if (stale_possible_ && next && !alive(*next)) {
      on_dead_reference(*node, *next);
      next = node->table.next_hop(key);  // may have been refilled
      if (next && !alive(*next)) next.reset();
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
      node->leaves.visit_members([&](const NodeId& member) {
        if (!alive(member)) {
          dead.push_back(member);
        } else if (closer_to(key, member, best)) {
          best = member;
        }
        return false;
      });
      node->table.for_each_populated([&](const NodeId& entry) {
        if (!alive(entry)) {
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
  return RouteResult{current, node->slot, hops, current == root.id, travelled};
}

const LeafSet& Overlay::leaf_set(const NodeId& id) const { return state_of(id).leaves; }

const RoutingTable& Overlay::routing_table(const NodeId& id) const {
  return state_of(id).table;
}

}  // namespace webcache::pastry
