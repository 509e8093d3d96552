// Simulated Pastry overlay (Rowstron & Druschel, Middleware 2001).
//
// The paper organizes the cooperative halves of all client browser caches in
// a cluster into one P2P client cache on a Pastry ring: destaged objects are
// routed by objectId = SHA-1(URL) to the live node whose cacheId is
// numerically closest (the "root"), in ceil(log_{2^b} N) expected hops.
//
// This class simulates the overlay at the protocol-state level: every node
// keeps its own routing table and leaf set, and route() makes forwarding
// decisions *using only that per-node state*, so measured hop counts are the
// real Pastry hop counts. What is abstracted away is the message exchange of
// the join/repair protocols themselves: joins and repairs install the state
// those protocols converge to, taking the global membership view as ground
// truth. Failures leave stale references behind exactly as real crashes do;
// they are discovered on use (modelling timeouts) and repaired per-entry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "pastry/leaf_set.hpp"
#include "pastry/node_id.hpp"
#include "pastry/routing_table.hpp"

namespace webcache::pastry {

struct OverlayConfig {
  /// Pastry's b: bits per id digit. b = 4 (hex digits) is the value the
  /// paper quotes (log_16 N hops for N = 1024 clients).
  unsigned bits_per_digit = 4;
  /// Pastry's l: leaf-set size (typical value 16 per the paper, Section 4.3).
  unsigned leaf_set_size = 16;
  /// Proximity-aware routing-table population: among the id-eligible
  /// candidates for a slot, prefer the one closest to the owner under the
  /// network proximity metric (Pastry's locality property — the reason
  /// overlay hops stay cheap LAN hops, which the paper's Tp2p argument
  /// leans on). When off, the numerically first candidate is used.
  bool proximity_routing = false;
};

/// Position of a node in the proximity space: an abstract 2-D unit square
/// whose Euclidean distances stand in for pairwise network latencies.
/// Coordinates are derived deterministically from the node id unless
/// supplied explicitly at join time.
struct Coordinates {
  double x = 0.0;
  double y = 0.0;
};

/// Network proximity between two points (Euclidean distance).
[[nodiscard]] double proximity(const Coordinates& a, const Coordinates& b);

/// Default coordinates for a node id (uniform hash into the unit square).
[[nodiscard]] Coordinates default_coordinates(const NodeId& id);

/// Outcome of routing one message.
struct RouteResult {
  NodeId destination;      ///< node the message was delivered to
  std::uint32_t destination_slot = 0;  ///< dense slot of the destination (see slot_of)
  unsigned hops = 0;       ///< overlay hops traversed (0 = delivered locally)
  bool success = false;    ///< destination is the true root of the key
  /// Sum of proximity distances along the route (the "network distance"
  /// the message actually travelled; compare against the direct
  /// source-to-destination proximity for the relative delay penalty).
  double distance = 0.0;
};

/// Cumulative overlay health/activity counters. A read-time view over the
/// overlay's obs::Registry instruments (see Overlay::stats()).
struct OverlayStats {
  std::uint64_t messages_routed = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t dead_hop_detections = 0;  ///< stale entries hit during routing
  std::uint64_t fallback_hops = 0;        ///< rare-case routing (neither leaf nor table)
  std::uint64_t repairs = 0;              ///< entries re-populated after failures
};

class Overlay {
 public:
  /// `registry` (optional) receives the overlay's counters and the per-route
  /// hop histogram under `prefix`; without one the overlay keeps a private
  /// registry, so standalone use needs no wiring.
  explicit Overlay(OverlayConfig config = {}, obs::Registry* registry = nullptr,
                   const std::string& prefix = "pastry.");

  const OverlayConfig& config() const { return config_; }

  /// Joins a node. Builds the newcomer's state and updates existing nodes'
  /// leaf sets / routing tables to the post-join steady state. Returns the
  /// node's dense slot (see slot_of). Throws std::invalid_argument on
  /// duplicate ids.
  std::uint32_t add_node(const NodeId& id);

  /// Joins a node at an explicit position in the proximity space.
  std::uint32_t add_node(const NodeId& id, const Coordinates& where);

  /// The node's position in the proximity space.
  [[nodiscard]] const Coordinates& coordinates_of(const NodeId& id) const;

  /// Graceful departure: state of the remaining nodes is updated eagerly.
  void remove_node(const NodeId& id);

  /// Crash failure: the node stops responding but remains in other nodes'
  /// tables until detected. Repairs happen on detection or via repair_all().
  /// The node's entry keeps its proximity coordinates, so a later
  /// rejoin_node() restores its network position.
  void fail_node(const NodeId& id);

  /// Re-admits a node that left (same id, fresh protocol state) at the
  /// proximity coordinates its entry kept — default coordinates if the id
  /// was never seen. Coordinates survive a graceful departure as well as a
  /// crash, although only crashed nodes are rejoined this way. Throws
  /// std::invalid_argument if the id is currently alive.
  void rejoin_node(const NodeId& id);

  /// Periodic repair pass over every live node: prunes dead references and
  /// refills what can be refilled. Models Pastry's background maintenance.
  void repair_all();

  [[nodiscard]] bool contains(const NodeId& id) const {  ///< alive?
    return live_slot(id).has_value();
  }
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

  /// Whether the node holding dense slot `slot` is alive (false for slots
  /// never handed out). O(1).
  [[nodiscard]] bool slot_alive(std::uint32_t slot) const {
    return slot < nodes_.size() && nodes_[slot].alive;
  }

  /// Dense slot permanently assigned to `id` at its first join. Slots are
  /// handed out sequentially (0, 1, 2, ...) and survive crash/rejoin, so
  /// callers can replace NodeId-keyed hash maps with plain arrays. Throws
  /// std::out_of_range for ids that never joined.
  [[nodiscard]] std::uint32_t slot_of(const NodeId& id) const;

  /// Monotone counter bumped on every membership or repair event that can
  /// change any node's leaf set or routing table. Callers caching derived
  /// views (e.g. a root's leaf members) revalidate against this.
  [[nodiscard]] std::uint64_t topology_version() const { return topology_version_; }

  /// Ground-truth root: the live node numerically closest to `key`.
  /// Requires a non-empty overlay.
  [[nodiscard]] NodeId root_of(const Uint128& key) const;

  /// Routes a message from `from` toward `key` using per-node state only.
  /// `from` must be alive.
  RouteResult route(const NodeId& from, const Uint128& key);

  /// Same, addressing the origin by its dense slot (hot path: skips the
  /// NodeId hash lookup). The slot must be alive.
  RouteResult route(std::uint32_t from_slot, const Uint128& key);

  /// Per-node state access (tests, diversion logic).
  [[nodiscard]] const LeafSet& leaf_set(const NodeId& id) const;
  [[nodiscard]] const RoutingTable& routing_table(const NodeId& id) const;

  /// Counter view, rebuilt from the registry on each call.
  [[nodiscard]] OverlayStats stats() const {
    OverlayStats s;
    s.messages_routed = counters_.messages_routed.value();
    s.total_hops = counters_.total_hops.value();
    s.dead_hop_detections = counters_.dead_hop_detections.value();
    s.fallback_hops = counters_.fallback_hops.value();
    s.repairs = counters_.repairs.value();
    return s;
  }
  void reset_stats() {
    counters_.messages_routed.reset();
    counters_.total_hops.reset();
    counters_.dead_hop_detections.reset();
    counters_.fallback_hops.reset();
    counters_.repairs.reset();
  }

  /// All live node ids in ring order (ascending id).
  [[nodiscard]] std::vector<NodeId> nodes() const;

  /// Expected upper bound on hops for the current size: ceil(log_{2^b} N).
  [[nodiscard]] unsigned expected_hop_bound() const;

 private:
  struct Counters {
    Counters(obs::Registry& registry, const std::string& prefix)
        : messages_routed(registry.counter(prefix + "messages_routed")),
          total_hops(registry.counter(prefix + "total_hops")),
          dead_hop_detections(registry.counter(prefix + "dead_hop_detections")),
          fallback_hops(registry.counter(prefix + "fallback_hops")),
          repairs(registry.counter(prefix + "repairs")),
          hops(registry.histogram(prefix + "hops", 0.0, 16.0, 16)) {}
    obs::Counter& messages_routed;
    obs::Counter& total_hops;
    obs::Counter& dead_hop_detections;
    obs::Counter& fallback_hops;
    obs::Counter& repairs;
    Histogram& hops;  ///< per-route hop distribution (webcache::Histogram)
  };

  /// One entry of the node table: a node's protocol state and network
  /// position. The id is the routing table's owner. Entries are never
  /// removed; a dead node's entry keeps its coordinates for a rejoin, which
  /// installs fresh protocol state.
  struct Node {
    Node(const NodeId& id, const OverlayConfig& cfg, const Coordinates& where)
        : table(id, cfg.bits_per_digit), leaves(id, cfg.leaf_set_size), coords(where) {}
    bool alive = true;
    RoutingTable table;
    LeafSet leaves;
    Coordinates coords;
  };

  /// One live node in ring order: its id and slot, so ring walks and root
  /// lookups never go back through the id map.
  struct RingEntry {
    NodeId id;
    std::uint32_t slot;
  };

  /// Slot of `id` if it is a live node.
  [[nodiscard]] std::optional<std::uint32_t> live_slot(const NodeId& id) const {
    const auto it = slot_ids_.find(id);
    if (it == slot_ids_.end() || !nodes_[it->second].alive) return std::nullopt;
    return it->second;
  }

  /// Entry of a live node; throws std::out_of_range for unknown or dead ids.
  [[nodiscard]] const Node& node_of(const NodeId& id) const;

  /// Ground-truth root of `key` with its slot (binary search over sorted_).
  [[nodiscard]] const RingEntry& root_entry(const Uint128& key) const;

  RouteResult route_from(std::uint32_t origin, const Uint128& key);

  /// Refills one routing-table slot of `node` from the live membership.
  bool refill_slot(Node& node, unsigned row, unsigned column);

  /// Rebuilds a node's leaf set from the live ring (protocol steady state).
  void rebuild_leaf_set(Node& node);

  /// Handles a discovered-dead reference held by `holder` toward `dead`.
  void on_dead_reference(Node& holder, const NodeId& dead);

  /// Takes a live node out of the ring (crash or departure).
  void leave(const NodeId& id);

  OverlayConfig config_;
  /// The node table, indexed by the permanent dense slot handed out at a
  /// node's first join (0, 1, 2, ...); slots are never reused for another
  /// id, so external structures can index by slot.
  std::vector<Node> nodes_;
  /// Live nodes in ascending id order: root lookups binary-search it once
  /// per routed message, and every ring walk (leaf-set and table rebuilds,
  /// join announcements, repair passes) runs over it.
  std::vector<RingEntry> sorted_;
  /// Permanent id -> slot assignment (survives crashes; grows only on the
  /// first join of a brand-new id).
  std::unordered_map<NodeId, std::uint32_t, Uint128Hash> slot_ids_;
  /// Bumped whenever any node's leaf set or routing table may have changed.
  std::uint64_t topology_version_ = 0;
  /// False while no crash has occurred since the last full repair pass. In
  /// that state no node can hold a stale reference (joins and graceful
  /// departures keep all state fresh), so route() skips every per-member
  /// liveness probe — the dominant cost of a hop.
  bool stale_possible_ = false;
  /// Fallback registry when none was supplied (declared before counters_ so
  /// the counter references outlive nothing).
  std::unique_ptr<obs::Registry> owned_registry_;
  Counters counters_;
};

}  // namespace webcache::pastry
