// The P2P client cache: the cooperative halves of all client browser caches
// in one client cluster, federated over a Pastry overlay (paper Sections
// 4.1 and 4.3).
//
// Placement: a destaged object's objectId = SHA-1(URL) is routed to the live
// client cache whose cacheId is numerically closest (its *root*). Storage
// management uses PAST-style *object diversion*: a full root first offers
// the object to a leaf-set member with free space, keeping a pointer; only
// when the whole leaf neighborhood is full does it run its local greedy-dual
// replacement and discard the loser. Every client cache runs greedy-dual
// locally, making this tier the bottom half of Hier-GD.
//
// Lookups route to the root and follow at most one diversion pointer.
// On a hit the object is, by default, handed up to the proxy and removed
// here ("promote"): the proxy now holds it and will destage it again on
// eviction, so keeping a second copy below would only waste client space.
//
// The class accounts overlay messages, diversions, receipts and hops as
// obs::Registry counters (prefix "<name_prefix>.net."); messages() exposes
// them as the net::MessageStats view the ablation benches report.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/policy.hpp"
#include "common/dense_map.hpp"
#include "common/types.hpp"
#include "common/uint128.hpp"
#include "net/message_stats.hpp"
#include "obs/registry.hpp"
#include "pastry/overlay.hpp"

namespace webcache::p2p {

/// How individual client-cache capacities are assigned. The paper motivates
/// object diversion precisely by "differences in the storage capacity and
/// utilization of client caches within a leaf set" (Section 4.3), so the
/// heterogeneous modes are the ones that exercise it fully.
enum class CapacitySpread {
  kUniform,      ///< every client donates per_client_capacity
  kBimodal,      ///< alternating 1.5x / 0.5x donations (desktops vs laptops;
                 ///< same expected total as kUniform)
  kProportional, ///< capacity c*2k/(N+1) by client index (linear spread,
                 ///< same expected total)
};

struct P2PConfig {
  ClientNum clients = 100;
  std::size_t per_client_capacity = 5;
  CapacitySpread capacity_spread = CapacitySpread::kUniform;
  pastry::OverlayConfig overlay{};
  /// PAST-style object diversion inside leaf sets (paper Section 4.3);
  /// the ablation bench switches this off.
  bool enable_diversion = true;
  /// Distinguishes node ids across clusters (cacheId = SHA-1 of this prefix
  /// plus the client index).
  std::string name_prefix = "cluster0";
  /// Replacement policy of each client's cooperative cache slice. kDefault =
  /// greedy-dual, the paper's Hier-GD bottom tier (SimConfig::client_policy
  /// threads through here).
  cache::PolicyKind client_policy = cache::PolicyKind::kDefault;
};

/// Capacity of client `index` under a spread policy. Deterministic so runs
/// are reproducible; totals match clients * per_client_capacity up to
/// rounding.
[[nodiscard]] std::size_t client_capacity(const P2PConfig& config, ClientNum index);

/// Result of destaging one evicted object into the P2P cache.
struct StoreOutcome {
  bool stored = false;                 ///< false only for degenerate capacity-0 setups
  bool already_present = false;        ///< destage found a live copy; refreshed it
  bool diverted = false;               ///< stored at a leaf-set peer of the root
  std::optional<ObjectNum> displaced;  ///< object that left the P2P cache entirely
  unsigned hops = 0;                   ///< Pastry hops consumed
};

/// Result of a lookup/fetch.
struct FetchOutcome {
  bool hit = false;
  bool via_diversion_pointer = false;
  bool removed = false;  ///< object was promoted out (remove_on_hit)
  unsigned hops = 0;
};

class P2PClientCache {
 public:
  /// `object_ids[o]` must hold SHA-1(URL of o); shared with the directories.
  /// `registry` (optional) receives the message counters
  /// (`<name_prefix>.net.*`), the overlay instruments
  /// (`<name_prefix>.pastry.*`) and the aggregated client-cache counters
  /// (`<name_prefix>.client_cache.*`); without one the cluster keeps a
  /// private registry, so standalone use needs no wiring.
  P2PClientCache(P2PConfig config, std::shared_ptr<const std::vector<Uint128>> object_ids,
                 obs::Registry* registry = nullptr);

  /// Destages `object` (evicted by the proxy) into the cluster, routing from
  /// `via_client` (the client whose HTTP response carried the piggybacked
  /// object). `cost` is the greedy-dual credit, i.e. the object's refetch
  /// cost.
  StoreOutcome store(ObjectNum object, double cost, ClientNum via_client);

  /// Looks up `object`, routing from `via_client`. When `remove_on_hit`,
  /// the object is promoted out of this tier (the caller now owns it).
  FetchOutcome fetch(ObjectNum object, ClientNum via_client, bool remove_on_hit = true);

  /// Ground truth membership (exact directories mirror this; tests check).
  [[nodiscard]] bool contains(ObjectNum object) const { return location_.contains(object); }

  /// Whether a given client machine is up (fault-injection support): the
  /// overlay's liveness of the client's slot.
  [[nodiscard]] bool client_alive(ClientNum client) const {
    return overlay_.slot_alive(client);
  }

  [[nodiscard]] std::size_t size() const { return location_.size(); }
  [[nodiscard]] std::size_t total_capacity() const;
  [[nodiscard]] ClientNum cluster_size() const { return static_cast<ClientNum>(nodes_.size()); }

  /// Crash-fails a client: its cached objects are lost. Returns the objects
  /// that vanished (the proxy's directory is now stale until told).
  std::vector<ObjectNum> fail_client(ClientNum client);

  /// Brings a crashed client back up with an empty cooperative cache (the
  /// machine rebooted; its browser-cache half restarts cold). The node
  /// rejoins the overlay at the proximity coordinates its overlay entry
  /// kept. Returns false (and does nothing) if the client is already alive.
  bool revive_client(ClientNum client);

  /// A brand-new client machine joins the cluster: a fresh node with its own
  /// greedy-dual cache (capacity per the configured spread) enters the
  /// overlay. Returns the new client's index.
  ClientNum add_client();

  /// Number of currently-live client machines.
  [[nodiscard]] ClientNum alive_clients() const {
    return static_cast<ClientNum>(overlay_.size());
  }

  /// Runs the overlay's periodic repair.
  void repair() { overlay_.repair_all(); }

  /// Message-traffic view, rebuilt from the registry counters on each call.
  [[nodiscard]] net::MessageStats messages() const { return msg_.view(); }

  [[nodiscard]] const pastry::Overlay& overlay() const { return overlay_; }
  [[nodiscard]] const P2PConfig& config() const { return config_; }

  /// Objects physically stored at a given client (tests, balance metrics).
  [[nodiscard]] std::vector<ObjectNum> contents_of(ClientNum client) const;

  /// Coefficient of variation of per-client utilization — the balance metric
  /// the diversion ablation reports.
  [[nodiscard]] double utilization_cv() const;

  /// Every object resident anywhere in the cluster, ascending (the ground
  /// truth the proxy's lookup directory approximates). Audit/test support.
  [[nodiscard]] std::vector<ObjectNum> resident_objects() const;

  /// Structural self-check: location index ↔ per-node caches bidirectional,
  /// dead nodes empty, diversion pointers symmetric and live. Returns a
  /// description per violation (empty = consistent). Used by Simulator::audit.
  [[nodiscard]] std::vector<std::string> audit_violations() const;

 private:
  /// Clients are identified by dense indices throughout: a client's index
  /// equals its permanent overlay slot (asserted at join), so routing results
  /// and diversion pointers address nodes_ directly — no NodeId hashing on
  /// the hot path — and a client is alive iff the overlay says its slot is.
  struct ClientNode {
    pastry::NodeId id;
    std::unique_ptr<cache::Cache> cache;  ///< greedy-dual unless client_policy overrides
    /// Objects this node is root for but that live at a leaf-set peer
    /// (value = the peer's client index).
    FlatMap<ClientNum> diverted_out;
    /// Objects stored here on behalf of another root (value = the root's
    /// client index).
    FlatMap<ClientNum> diverted_in;
    /// Leaf-set membership resolved to client indices, revalidated against
    /// the overlay's topology version (stale after any join/crash/repair).
    std::vector<ClientNum> leaf_clients;
    std::uint64_t leaf_version = kNoLeafVersion;
  };
  static constexpr std::uint64_t kNoLeafVersion = ~std::uint64_t{0};

  [[nodiscard]] const Uint128& id_of(ObjectNum object) const;

  /// Client indices of `root_idx`'s current leaf-set members, in leaf-set
  /// iteration order (may include dead clients; callers filter on
  /// client_alive).
  const std::vector<ClientNum>& leaf_clients_of(std::size_t root_idx);

  /// Removes every bookkeeping trace of `object` stored at node `idx`.
  void detach(ObjectNum object, std::size_t idx);

  /// Handles the eviction of `victim` from node `idx`'s local cache.
  void on_local_eviction(ObjectNum victim, std::size_t idx);

  P2PConfig config_;
  std::shared_ptr<const std::vector<Uint128>> object_ids_;
  /// The registry the cluster binds its instruments into (owned or caller's);
  /// kept so add_client can bind late-joining caches to the same counters.
  obs::Registry* registry_ = nullptr;
  /// Fallback registry when none was supplied (declared before the members
  /// that bind counters out of it).
  std::unique_ptr<obs::Registry> owned_registry_;
  pastry::Overlay overlay_;
  std::vector<ClientNode> nodes_;
  /// object -> index of the node physically storing it: one 8-byte slot per
  /// entry, reserved so the cluster's full capacity fills at most 7/16 of
  /// the table (most fetches and stores look up an object that is not here).
  FlatMap<std::uint32_t> location_;
  net::MessageCounters msg_;
};

}  // namespace webcache::p2p
