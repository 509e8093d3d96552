// Trace-driven simulator for the seven caching schemes.
//
// Requests are partitioned round-robin over the proxy cluster (request t
// goes to proxy t mod P), which makes the per-proxy streams statistically
// identical (paper assumption 2) while keeping the object universe shared —
// the property inter-proxy cooperation feeds on. Within a cluster, the
// trace's client id picks the issuing client.
//
// Scheme wiring (see DESIGN.md section 4 for the normative semantics):
//   NC / SC       per-proxy LFU cache; SC additionally reads through
//                 cooperating proxies and copies what it fetches.
//   FC            SC lookup path + coordinated cost-benefit replacement
//                 with perfect frequency knowledge (upper bound).
//   NC-EC / SC-EC the proxy unified with its pooled P2P client cache as a
//                 TieredCache (tier 1 = proxy, tier 2 = client caches).
//   FC-EC         one coordinated cost-benefit cache of combined capacity
//                 per proxy; an LRU tracker of proxy-cache size attributes
//                 hits to tier 1 (Tl) or tier 2 (Tp2p).
//   Hier-GD       greedy-dual at the proxy, evictions destaged into a real
//                 Pastry-federated P2P client cache with object diversion,
//                 a lookup directory (exact or Bloom), piggybacked destages
//                 and the push protocol for remote access.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/cost_benefit.hpp"
#include "common/dense_map.hpp"
#include "cache/lru.hpp"
#include "cache/policy.hpp"
#include "directory/directory.hpp"
#include "fault/churn_engine.hpp"
#include "fault/churn_schedule.hpp"
#include "fault/loss_model.hpp"
#include "net/latency_model.hpp"
#include "obs/registry.hpp"
#include "p2p/p2p_client_cache.hpp"
#include "sim/cluster_sets.hpp"
#include "sim/metrics.hpp"
#include "sim/scheme.hpp"
#include "sim/tiered_cache.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_stats.hpp"

namespace webcache::sim {

enum class DirectoryKind { kExact, kBloom };

/// What Simulator::audit() found.
struct AuditReport {
  std::uint64_t checks = 0;  ///< individual assertions evaluated
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

struct SimConfig {
  Scheme scheme = Scheme::kNC;
  unsigned num_proxies = 2;
  /// Proxy cache capacity, in objects, per proxy.
  std::size_t proxy_capacity = 500;
  /// Client population per proxy (paper default 100).
  ClientNum clients_per_cluster = 100;
  /// Cooperative browser-cache capacity per client, in objects (paper:
  /// 0.1% of the infinite cache size).
  std::size_t client_cache_capacity = 5;
  net::LatencyModel latencies = net::LatencyModel::from_ratios();
  /// Hier-GD lookup directory representation (paper Section 4.2).
  DirectoryKind directory = DirectoryKind::kExact;
  double bloom_target_fpr = 0.01;
  /// Hier-GD object diversion (paper Section 4.3); ablation switches it off.
  bool enable_diversion = true;
  /// How client-cache capacities vary across machines (paper Section 4.3
  /// motivates diversion by exactly this heterogeneity).
  p2p::CapacitySpread capacity_spread = p2p::CapacitySpread::kUniform;
  /// Optional per-Pastry-hop latency added to P2P fetch/push operations.
  /// The paper folds the expected hops into the constant Tp2p (its
  /// assumption 3); setting this > 0 instead charges the measured hops,
  /// which makes the client-cluster-size experiments latency-honest.
  double p2p_hop_latency = 0.0;
  /// Proxy-tier replacement/admission policy override (CLI --proxy-policy).
  /// kDefault keeps each scheme's paper policy: LFU-DA at NC/SC and the *-EC
  /// tier 1, greedy-dual at Hier-GD. FC/FC-EC reject any override — the
  /// clairvoyant cost-benefit coordinator IS those schemes
  /// (std::invalid_argument).
  cache::PolicyKind proxy_policy = cache::PolicyKind::kDefault;
  /// Client-tier policy override (CLI --client-policy): tier 2 of
  /// NC-EC/SC-EC (default LFU) and the per-client cooperative caches of
  /// Hier-GD/Squirrel (default greedy-dual). Ignored by NC/SC/FC, which have
  /// no client tier; rejected by FC-EC like proxy_policy.
  cache::PolicyKind client_policy = cache::PolicyKind::kDefault;
  /// Per-client *private* browser cache (the "local" partition of the
  /// client cache, paper Section 2). 0 disables it — the trace is then
  /// interpreted as the post-browser-cache request stream, which is the
  /// paper's evaluation setup.
  std::size_t browser_cache_capacity = 0;
  /// Churn schedule (crashes, delayed rejoins, fresh joins, periodic
  /// repair passes), executed by the fault::ChurnEngine at the scheduled
  /// trace positions. Requires individually addressable client caches
  /// (Hier-GD or Squirrel); a crash loses the client's share of the P2P
  /// cache and leaves the proxy's directory stale until failed lookups
  /// correct it.
  std::vector<fault::ChurnEvent> churn_events{};
  /// Probability in [0, 1) that any single P2P transfer (lookup, destage,
  /// push) is lost and must be retried after a timeout — each loss costs the
  /// request an extra Tp2p of (wasted) latency. Hier-GD/Squirrel only. The
  /// loss stream is forked off `seed`, so enabling it never perturbs the
  /// workload draws.
  double p2p_loss_rate = 0.0;
  /// Run Simulator::audit() after every `audit_interval` requests and once
  /// at the end of the trace; 0 audits at the end only, and no value (the
  /// default) never audits. run() throws std::logic_error listing every
  /// violation. Audits change no exported metric.
  std::optional<std::uint64_t> audit_interval{};
  pastry::OverlayConfig overlay{};
  std::uint64_t seed = 7;
  /// Optional precomputed statistics of the trace this config will run on
  /// (FC/FC-EC derive their perfect-frequency table from them). run_sweep
  /// shares one analysis across all its jobs instead of re-scanning the
  /// trace per simulator; when absent, the constructor analyzes the trace
  /// itself, so run_single and direct construction are unaffected.
  std::shared_ptr<const workload::TraceStats> trace_stats{};
  /// Optional precomputed ring-placement table: `(*object_ids)[o]` must be
  /// SHA-1(object_url(o)) for every object of the trace. Hier-GD/Squirrel
  /// build it in the constructor when absent; run_sweep shares one table
  /// across all its jobs (like trace_stats) so the per-object hashing runs
  /// once per sweep instead of once per job. Must cover exactly the trace's
  /// distinct_objects when supplied.
  std::shared_ptr<const std::vector<Uint128>> object_ids{};
  /// Observability registry every component of this simulation binds its
  /// instruments into (schema "webcache-metrics/1"; see README). When null
  /// the simulator counts into a private one that dies with it; supply a
  /// registry to read or export the instruments after the run.
  std::shared_ptr<obs::Registry> registry{};
  /// Capture a counter/gauge snapshot every N requests (0 = off), taken by
  /// run() after the Nth request completes.
  std::uint64_t snapshot_interval = 0;
  /// Ring capacity of the request-level event tracer (0 = off). Each served
  /// request records a TraceEvent {request index, ServedFrom code, latency,
  /// wasted latency}.
  std::size_t trace_capacity = 0;
  /// Intra-run sharding: number of worker shards one simulation is
  /// partitioned across. 0 (the default) selects the classic sequential
  /// engine, bit-for-bit unchanged. Any value >= 1 selects the sharded
  /// engine: proxy clusters (and their client populations) are partitioned
  /// round-robin over min(sim_shards, num_proxies) worker threads, each
  /// replaying its clusters' slice of the trace against its own data plane,
  /// with cross-cluster interactions resolved through an epoch-digest
  /// barrier protocol keyed on trace position. Results are byte-identical
  /// for EVERY sim_shards >= 1 (the value only sets the parallelism). Remote
  /// lookups consult epoch-start digests: digest-based cooperation, not the
  /// paper's query-based one, so the cooperative gains fall well below the
  /// sequential engine's (2 proxies, 10% cache, default epoch: Hier-GD gains
  /// 16.34% instead of 37.13%; EXPERIMENTS.md, "Digest-based versus
  /// query-based cooperation"). Configurations whose semantics are
  /// inherently global — FC/FC-EC (clairvoyant coordinator), interval
  /// snapshots, the event tracer, invariant audits (audit_interval), or a
  /// single proxy — fall back to the sequential engine at any value.
  unsigned sim_shards = 0;
  /// Digest refresh period of the sharded engine, in trace positions
  /// (0 = default, 8192). A semantic parameter of the sharded engine:
  /// cross-cluster lookups within an epoch see the epoch-start digest.
  /// Results depend on it — but never on sim_shards or threads. Ignored by
  /// the sequential engine.
  std::uint64_t shard_epoch = 0;
};

class Simulator {
 public:
  /// The source (an in-memory Trace or a compiled-trace mapping) must
  /// outlive the simulator; it is replayed in sequential windows
  /// (workload::default_replay_chunk), so out-of-core sources run in
  /// bounded memory. FC/FC-EC precompute the perfect frequency table from
  /// the stream here (one extra pass).
  Simulator(SimConfig config, const workload::TraceSource& source);
  ~Simulator();

  /// Replays the full trace and returns the metrics (a view over the
  /// registry's instruments). One-shot.
  Metrics run();

  /// Checks the consistency properties no single layer can check alone:
  /// per-cache size/contents/victim agreement and greedy-dual heap order,
  /// the cooperation index against the caches, Pastry leaf-set and
  /// routing-table well-formedness, P2P residency with diversion-pointer
  /// symmetry, the directory contract (a Bloom directory never lies
  /// negatively; an exact one mirrors residency until crashes make a
  /// loss-bounded ghost count legal) and the outcome ledger (every request
  /// replayed so far served exactly once). Read-only and counter-free, so
  /// an audited run exports the same bytes as an unaudited one.
  [[nodiscard]] AuditReport audit() const;

  /// Introspection for tests/ablations (null unless the scheme uses them).
  [[nodiscard]] const p2p::P2PClientCache* p2p_of(unsigned proxy) const;
  [[nodiscard]] const directory::LookupDirectory* directory_of(unsigned proxy) const;

  /// True when `config` actually runs the sharded engine at sim_shards >= 1;
  /// false means any sim_shards value falls back to the sequential engine
  /// (see SimConfig::sim_shards for the list of sequential-only shapes).
  [[nodiscard]] static bool sharding_supported(const SimConfig& config);

 private:
  friend struct ShardedRunEngine;  ///< the sharded run loop (sharded_run.cpp)

  /// Request outcomes ("sim.*", "fault.*") and simulator-level protocol
  /// messages ("net.*"), bound once into one registry; every served request
  /// costs a handful of pointer-indirect increments.
  struct Outcomes {
    Outcomes(obs::Registry& reg, const net::LatencyModel& latencies);
    obs::Registry& registry;
    obs::Counter& requests;
    obs::Counter& hits_browser;
    obs::Counter& hits_local_proxy;
    obs::Counter& hits_local_p2p;
    obs::Counter& hits_remote_proxy;
    obs::Counter& hits_remote_p2p;
    obs::Counter& server_fetches;
    obs::Counter& fault_crashes;       ///< "fault.crashes"
    obs::Counter& fault_rejoins;       ///< "fault.rejoins"
    obs::Counter& fault_joins;         ///< "fault.joins"
    obs::Counter& fault_repairs;       ///< "fault.repairs" (scheduled passes)
    obs::Counter& fault_objects_lost;  ///< "fault.objects_lost" (crash casualties)
    obs::Gauge& total_latency;
    obs::Gauge& wasted_p2p_latency;
    obs::Gauge& p2p_hop_latency_total;
    RunningStat& p2p_hops;
    Histogram& latency_hist;  ///< per-request total latency distribution
    Histogram& hops_hist;     ///< Pastry hops per P2P operation
    net::MessageCounters msg;
  };

  /// The cooperation index's sets; what each holds is per scheme:
  ///   SC / FC    kPrimary = proxy cache membership
  ///   SC-EC      kPrimary = tier 1 (proxy), kSecondary = tier 2 (P2P)
  ///   FC-EC      kPrimary = tier tracker, kSecondary = unified cache
  ///   Hier-GD    kPrimary = proxy cache membership, kDir = clusters whose
  ///              lookup directory registered the object (sharded engine only)
  /// Non-cooperative schemes leave every set empty. Live in the sequential
  /// engine; the epoch-start digests in the sharded engine.
  enum CoopSet : std::uint8_t { kPrimary, kSecondary, kDir };

  /// A request's touch of another cluster (defined in sim/sharded.hpp).
  struct RemoteOp;

  struct Proxy {
    // NC / SC / FC / Hier-GD: LFU-DA, cost-benefit or greedy-dual, unless
    // SimConfig::proxy_policy overrides it
    std::unique_ptr<cache::Cache> cache;
    // NC-EC / SC-EC
    std::unique_ptr<TieredCache> tiered;
    // FC-EC
    std::unique_ptr<cache::CostBenefitCache> unified;
    std::unique_ptr<cache::LruCache> tier_tracker;
    // Hier-GD
    std::unique_ptr<p2p::P2PClientCache> p2p;
    std::unique_ptr<directory::LookupDirectory> dir;
    /// Where each object was last fetched from, as a net::ServedFrom code
    /// (Hier-GD's greedy-dual credit is that level's fetch cost), direct-
    /// indexed by the dense object id (sized to the trace universe): one
    /// byte per object instead of the eight its cost would take. Empty at
    /// every other scheme, whose credit is the refetch cost.
    DenseMap<std::uint8_t> fetch_level;
    /// Private browser caches, one per client (empty unless enabled).
    std::vector<std::unique_ptr<cache::LruCache>> browsers;
    /// Where this cluster's outcomes and loss draws go: the run's own in the
    /// sequential engine, the cluster's lane in the sharded engine.
    Outcomes* out = nullptr;
    fault::LossModel* loss = nullptr;
  };

  /// Serves request `t` at `cluster`: the browser-cache front end, then the
  /// scheme's step. A request whose completion the sharded engine deferred
  /// (a Hier-GD push) gets its browser fill when phase 2b completes it.
  void serve(std::uint64_t t, const Request& request, unsigned cluster);
  void browser_fill(unsigned cluster, ClientNum raw_client, ObjectNum object);
  /// Executes one due churn event (the ChurnEngine's dispatcher).
  void apply_churn(const fault::ChurnEvent& event);
  /// Draws one P2P transfer against the cluster's loss model; a loss adds an
  /// extra Tp2p of wasted latency to the request-local `loss_waste`.
  void maybe_lose_p2p_message(Proxy& proxy, double& loss_waste);
  void step_basic(std::uint64_t t, const Request& request, unsigned cluster);
  void step_tiered_ec(std::uint64_t t, const Request& request, unsigned cluster);
  void step_fc_ec(const Request& request, unsigned cluster);
  bool step_hier_gd(std::uint64_t t, const Request& request, unsigned cluster);
  void step_squirrel(const Request& request, unsigned cluster);

  // --- engine seams: the only places a step asks which engine runs ---------
  /// Records that `cluster` gained (`present`) or lost `object` in `set`:
  /// written through now in the sequential engine (which keeps no kDir), or
  /// logged for the epoch barrier in the sharded engine.
  void mark(CoopSet set, ObjectNum object, unsigned cluster, bool present);
  /// A touch of another cluster's state. The sequential engine applies it
  /// now and returns true; the sharded engine queues it for phase 2a and
  /// returns false.
  bool remote(RemoteOp& op);
  /// Applies `op` to its target cluster; a push fetch records its outcome
  /// in the op.
  void apply_remote(RemoteOp& op);
  /// Completes a Hier-GD push request once its remote fetch has applied:
  /// accounting plus the local admit/destage chain (not the browser fill).
  void finish_push(const RemoteOp& op);

  /// Records one served request. `base` is the latency of where it was
  /// served; waste, hop and loss surcharges add to it in that order.
  void account(Outcomes& out, net::ServedFrom where, double base, double waste = 0.0,
               double hop = 0.0, double loss_waste = 0.0);

  /// Hier-GD: destages a proxy eviction into the P2P cache, piggybacked on
  /// the response to `via_client`, and maintains the lookup directory.
  void destage_hier_gd(unsigned cluster, ObjectNum victim, ClientNum via_client,
                       double& loss_waste);

  /// Hier-GD: admits an object fetched from `level` into the proxy's
  /// greedy-dual cache, crediting it with that level's fetch cost.
  void admit_hier_gd(unsigned cluster, ObjectNum object, net::ServedFrom level,
                     ClientNum via_client, double& loss_waste);

  /// The fetch cost of the level `proxy` last fetched the object from
  /// (recorded by Hier-GD admissions), else its refetch cost.
  [[nodiscard]] double credit_of(const Proxy& proxy, ObjectNum object) const;

  /// Marks an object as recently proxy-resident for FC-EC attribution.
  void track_tier1(unsigned cluster, ObjectNum object);

  /// SC-EC / FC-EC: the first cluster after `cluster` in ring order whose
  /// kPrimary set holds `object` (a remote proxy hit, Tc), else the first
  /// whose kSecondary set does (a remote P2P hit, Tc + Tp2p, which that
  /// cluster's client cache pushes up through its proxy: counted here).
  /// {-1, kOriginServer} when no cluster holds it.
  std::pair<int, net::ServedFrom> remote_holder(unsigned cluster, ObjectNum object);

  /// The live client that issues a request from `raw` (the trace's client
  /// id): its own machine, or the next live neighbour after churn.
  [[nodiscard]] ClientNum client_of(ClientNum raw, const Proxy& proxy) const;

  /// The Metrics view over the registry's instruments.
  [[nodiscard]] Metrics metrics_view() const;

  /// audit(), throwing std::logic_error that lists every violation.
  void audit_or_throw() const;

  // --- intra-run sharding (sim/sharded_run.cpp) ----------------------------
  /// The sharded engine's state: per-cluster lanes (registry, outcomes,
  /// churn/loss substreams, digest change log) and the per-shard outboxes.
  /// Null when the sequential engine runs.
  struct ShardedState;
  /// The sharded run loop: per epoch, phase 1 (parallel local replay against
  /// epoch-start digests), phase 2a (apply inbound cross-cluster ops in trace
  /// order), phase 2b (complete own deferred requests), then a single-threaded
  /// digest/outbox flush; finally merges every lane's registry into the
  /// canonical one in cluster order.
  Metrics run_sharded();

  SimConfig config_;
  const workload::TraceSource* source_;  ///< never null
  std::unique_ptr<cache::CostBenefitCoordinator> coordinator_;
  std::shared_ptr<const std::vector<Uint128>> object_ids_;
  std::vector<Proxy> proxies_;
  fault::ChurnEngine churn_;  ///< executes SimConfig::churn_events
  fault::LossModel loss_;
  std::shared_ptr<obs::Registry> registry_;  // never null after construction
  Outcomes out_;
  /// Requests replayed so far; in the sequential engine also the trace
  /// position of the request in flight. audit() checks the ledger against it.
  std::uint64_t replayed_ = 0;
  bool ran_ = false;
  std::array<ClusterSets, 3> coop_;        ///< indexed by CoopSet
  std::unique_ptr<ShardedState> sharded_;  ///< non-null = sharded engine runs
};

/// Convenience: construct, run, return metrics.
[[nodiscard]] Metrics run_simulation(const SimConfig& config,
                                     const workload::TraceSource& source);

}  // namespace webcache::sim
