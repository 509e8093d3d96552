// The intra-run sharded engine (SimConfig::sim_shards >= 1).
//
// The trace is replayed in epochs of SimConfig::shard_epoch positions, each
// epoch in three phases separated by barriers:
//
//   phase 1   Every shard walks the epoch's positions and processes the
//             requests of its own clusters (cluster = t mod P, shard =
//             cluster mod S) against live local state. Cross-cluster
//             decisions — which remote proxy to read through, which cluster
//             to push from — consult the EPOCH-START cooperation digests,
//             never another cluster's live state. Interactions that touch a
//             remote cluster become DeferredOps in the shard's outbox;
//             everything else completes inline.
//   phase 2a  Every shard gathers the ops targeting its own clusters from
//             all outboxes, sorts them by trace position (positions are
//             unique: at most one op per request) and applies them in order
//             against its clusters' live state, advancing the target's
//             churn substream to each op's position first. Push-fetch ops
//             get their outcome ({hit, hops}) written back into the op.
//   phase 2b  Every shard walks its own outbox in order and completes the
//             deferred-outcome requests (Hier-GD pushes): accounting, the
//             local admit + destage chain, and the browser fill.
//   flush     Single-threaded at the barrier: the per-cluster digest change
//             logs apply to the shared digests in cluster-ascending order,
//             outboxes clear, and the consumed trace prefix is released.
//
// Every decision depends only on (config, trace) — the shard count S fixes
// the cluster->thread map but never the outcome, so exports are
// byte-identical for any sim_shards >= 1. The cooperative numbers differ in
// detail from the sequential engine (digest staleness bounded by one epoch,
// mirroring the periodic digest exchange of real cooperative caches); the
// determinism contract is documented in README "Sharded runs".
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cluster_bitset.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace webcache::sim {

using net::ServedFrom;

struct ShardedRunEngine {
  using St = Simulator::ShardedState;
  using Lane = St::Lane;
  using DA = St::DigestArray;

  Simulator& sim;
  St& st;
  const unsigned P;
  const unsigned S;
  const std::uint64_t total;

  explicit ShardedRunEngine(Simulator& simulator)
      : sim(simulator),
        st(*simulator.sharded_),
        P(simulator.config_.num_proxies),
        S(st.shards),
        total(simulator.source_->size()) {}

  [[nodiscard]] const ClusterBitset& mask_of(const std::vector<ClusterBitset>& digest,
                                             ObjectNum object) const {
    static constexpr ClusterBitset kEmpty{};
    return object < digest.size() ? digest[object] : kEmpty;
  }

  void log_digest(Lane& lane, ObjectNum object, DA array, bool present) const {
    lane.log.push_back({object, array, present});
  }

  // --- per-lane accounting ---------------------------------------------------

  static void account(Lane& lane, ServedFrom where, double latency, double wasted,
                      double hop) {
    ++lane.requests;
    switch (where) {
      case ServedFrom::kBrowser: ++lane.hits_browser; break;
      case ServedFrom::kLocalProxy: ++lane.hits_local_proxy; break;
      case ServedFrom::kLocalP2P: ++lane.hits_local_p2p; break;
      case ServedFrom::kRemoteProxy: ++lane.hits_remote_proxy; break;
      case ServedFrom::kRemoteP2P: ++lane.hits_remote_p2p; break;
      case ServedFrom::kOriginServer: ++lane.server_fetches; break;
    }
    lane.total_latency += latency;
    lane.wasted_p2p_latency += wasted;
    lane.hop_latency_total += hop;
    lane.latency_hist.add(latency);
  }

  /// One loss draw from the CLUSTER's substream; the penalty accumulates in
  /// the request-local `loss_waste` the caller folds into its accounting.
  void maybe_lose(Lane& lane, double& loss_waste) const {
    if (!lane.loss.enabled()) return;
    if (lane.loss.lose_message()) {
      ++lane.p2p_messages_lost;
      ++lane.p2p_retries;
      loss_waste += sim.config_.latencies.loss_retry_penalty();
    }
  }

  /// Simulator::apply_churn, accumulating into the cluster's lane.
  void apply_churn(unsigned cluster, const fault::ChurnEvent& event) const {
    Simulator::Proxy& proxy = sim.proxies_[cluster];
    Lane& lane = st.lanes[cluster];
    switch (event.action) {
      case fault::ChurnAction::kCrash: {
        const ClientNum target = event.client % proxy.p2p->cluster_size();
        if (!proxy.p2p->client_alive(target)) break;
        if (proxy.p2p->alive_clients() <= 1) break;
        const auto lost = proxy.p2p->fail_client(target);
        ++lane.fault_crashes;
        lane.fault_objects_lost += lost.size();
        break;
      }
      case fault::ChurnAction::kRejoin: {
        const ClientNum target = event.client % proxy.p2p->cluster_size();
        if (proxy.p2p->revive_client(target)) ++lane.fault_rejoins;
        break;
      }
      case fault::ChurnAction::kJoin:
        (void)proxy.p2p->add_client();
        ++lane.fault_joins;
        break;
      case fault::ChurnAction::kRepair:
        proxy.p2p->repair();
        ++lane.fault_repairs;
        break;
    }
  }

  /// Lazily advances a cluster's churn substream to `now`. Called before
  /// every touch of the cluster's state (own requests in phase 1, inbound
  /// ops in phase 2a), which makes lazy dispatch equivalent to the
  /// sequential engine's eager per-position dispatch: every state read
  /// happens at a touch. The cursor is monotone, so re-advancing to an
  /// earlier position is a no-op.
  void advance_churn(unsigned cluster, std::uint64_t now) const {
    st.lanes[cluster].churn.advance(
        now, [this, cluster](const fault::ChurnEvent& e) { apply_churn(cluster, e); });
  }

  /// Simulator::client_of against a raw client id (phase 2a/2b resolve the
  /// target-side and requester-side clients at apply time, so the choice
  /// reflects the cluster's own churn position — deterministically).
  [[nodiscard]] ClientNum resolve_client(ClientNum raw,
                                         const Simulator::Proxy& proxy) const {
    ClientNum c = raw % sim.config_.clients_per_cluster;
    if (proxy.p2p && !proxy.p2p->client_alive(c)) {
      for (ClientNum step = 1; step < sim.config_.clients_per_cluster; ++step) {
        const ClientNum candidate = (c + step) % sim.config_.clients_per_cluster;
        if (proxy.p2p->client_alive(candidate)) return candidate;
      }
      throw std::runtime_error("Simulator: all clients of a cluster have failed");
    }
    return c;
  }

  // --- browser front end -----------------------------------------------------

  bool browser_lookup(Lane& lane, const Request& request, unsigned cluster) const {
    Simulator::Proxy& proxy = sim.proxies_[cluster];
    if (proxy.browsers.empty()) return false;
    auto& browser = *proxy.browsers[request.client % sim.config_.clients_per_cluster];
    if (!browser.contains(request.object)) return false;
    browser.access(request.object, 0.0);
    account(lane, ServedFrom::kBrowser,
            sim.config_.latencies.request_latency(ServedFrom::kBrowser), 0.0, 0.0);
    return true;
  }

  void browser_fill(unsigned cluster, ClientNum raw_client, ObjectNum object) const {
    Simulator::Proxy& proxy = sim.proxies_[cluster];
    if (proxy.browsers.empty()) return;
    auto& browser = *proxy.browsers[raw_client % sim.config_.clients_per_cluster];
    if (!browser.contains(object)) browser.insert(object, 0.0);
  }

  // --- per-scheme steps ------------------------------------------------------

  /// Returns true when the request completed inline; false when a deferred
  /// op (Hier-GD push) carries its completion into phase 2b.
  bool step(std::uint64_t t, const Request& request, unsigned cluster, unsigned shard) {
    switch (sim.config_.scheme) {
      case Scheme::kNC:
      case Scheme::kSC:
        step_basic(t, request, cluster, shard);
        return true;
      case Scheme::kNC_EC:
      case Scheme::kSC_EC:
        step_tiered(t, request, cluster, shard);
        return true;
      case Scheme::kHierGD:
        return step_hier_gd(t, request, cluster, shard);
      case Scheme::kSquirrel:
        step_squirrel(request, cluster);
        return true;
      case Scheme::kFC:
      case Scheme::kFC_EC:
        break;  // unreachable: sharding_supported() keeps these sequential
    }
    return true;
  }

  void step_basic(std::uint64_t t, const Request& request, unsigned cluster,
                  unsigned shard) {
    Simulator::Proxy& local = sim.proxies_[cluster];
    Lane& lane = st.lanes[cluster];
    const ObjectNum object = request.object;
    const auto& lat = sim.config_.latencies;
    const double refetch = lat.fetch_cost(ServedFrom::kOriginServer);

    if (local.cache->contains(object)) {
      local.cache->access(object, refetch);
      account(lane, ServedFrom::kLocalProxy,
              lat.request_latency(ServedFrom::kLocalProxy), 0.0, 0.0);
      return;
    }

    ServedFrom served = ServedFrom::kOriginServer;
    if (sim.config_.scheme == Scheme::kSC) {
      const int holder = first_holder_in_ring(mask_of(st.digest_primary, object), cluster);
      if (holder >= 0) {
        St::DeferredOp op;
        op.pos = t;
        op.object = object;
        op.source = cluster;
        op.target = static_cast<std::uint32_t>(holder);
        op.kind = St::OpKind::kProxyAccess;
        st.outbox[shard].push_back(op);
        served = ServedFrom::kRemoteProxy;
      }
    }

    const auto ins = local.cache->insert(object, lat.fetch_cost(served));
    if (st.use_primary && ins.inserted) {
      log_digest(lane, object, DA::kPrimary, true);
      if (ins.evicted) log_digest(lane, *ins.evicted, DA::kPrimary, false);
    }
    account(lane, served, lat.request_latency(served), 0.0, 0.0);
  }

  void step_tiered(std::uint64_t t, const Request& request, unsigned cluster,
                   unsigned shard) {
    Simulator::Proxy& local = sim.proxies_[cluster];
    Lane& lane = st.lanes[cluster];
    const ObjectNum object = request.object;
    const auto& lat = sim.config_.latencies;
    const double refetch = lat.fetch_cost(ServedFrom::kOriginServer);

    const auto where = local.tiered->locate(object);
    if (where != TieredCache::Where::kMiss) {
      local.tiered->access(object, refetch);
      const ServedFrom from = where == TieredCache::Where::kTier1
                                  ? ServedFrom::kLocalProxy
                                  : ServedFrom::kLocalP2P;
      account(lane, from, lat.request_latency(from), 0.0, 0.0);
      return;
    }

    ServedFrom served = ServedFrom::kOriginServer;
    if (sim.config_.scheme == Scheme::kSC_EC) {
      // Prefer an advertised remote tier-1 copy (Tc) over a tier-2 push
      // (Tc + Tp2p); either way the remote cluster refreshes the copy in
      // place when the op applies (membership never changes remotely).
      const int t1 = first_holder_in_ring(mask_of(st.digest_primary, object), cluster);
      int target = t1;
      if (t1 >= 0) {
        served = ServedFrom::kRemoteProxy;
      } else {
        const int t2 = first_holder_in_ring(mask_of(st.digest_secondary, object), cluster);
        if (t2 >= 0) {
          target = t2;
          served = ServedFrom::kRemoteP2P;
          ++lane.push_requests;
          ++lane.push_transfers;
        }
      }
      if (target >= 0) {
        St::DeferredOp op;
        op.pos = t;
        op.object = object;
        op.source = cluster;
        op.target = static_cast<std::uint32_t>(target);
        op.kind = St::OpKind::kTieredRefresh;
        st.outbox[shard].push_back(op);
      }
    }

    local.tiered->admit(object, lat.fetch_cost(served));  // transition hook logs
    account(lane, served, lat.request_latency(served), 0.0, 0.0);
  }

  void destage(unsigned cluster, ObjectNum victim, ClientNum via_client,
               double& loss_waste) const {
    Simulator::Proxy& proxy = sim.proxies_[cluster];
    Lane& lane = st.lanes[cluster];
    const auto& lat = sim.config_.latencies;
    ++lane.destage_piggybacked;
    ++lane.destage_bytes;

    const double* stored = proxy.fetch_cost.find(victim);
    const double credit =
        stored != nullptr ? *stored : lat.fetch_cost(ServedFrom::kOriginServer);
    maybe_lose(lane, loss_waste);
    const auto outcome = proxy.p2p->store(victim, credit, via_client);
    lane.p2p_hops.add(static_cast<double>(outcome.hops));
    lane.hops_hist.add(static_cast<double>(outcome.hops));

    if (outcome.stored && !outcome.already_present) {
      proxy.dir->add(victim);
      ++lane.directory_adds;
      log_digest(lane, victim, DA::kDir, true);
    }
    if (outcome.displaced) {
      proxy.dir->remove(*outcome.displaced);
      ++lane.directory_removes;
      log_digest(lane, *outcome.displaced, DA::kDir, false);
    }
  }

  void admit(unsigned cluster, ObjectNum object, double cost, ClientNum via_client,
             double& loss_waste) const {
    Simulator::Proxy& proxy = sim.proxies_[cluster];
    Lane& lane = st.lanes[cluster];
    // A push fetch deferred to phase 2b can race a later same-epoch request
    // that admitted the object inline (local P2P hit); sequentially the push
    // completes first and that later request is a plain hit. Honour the cache
    // contract (insert() is only for uncached objects) by refreshing instead.
    if (proxy.gd->contains(object)) {
      const double* stored = proxy.fetch_cost.find(object);
      proxy.gd->access(object, stored != nullptr ? *stored : cost);
      return;
    }
    proxy.fetch_cost[object] = cost;
    const auto ins = proxy.gd->insert(object, cost);
    if (ins.inserted) {
      log_digest(lane, object, DA::kPrimary, true);
      if (ins.evicted) log_digest(lane, *ins.evicted, DA::kPrimary, false);
    }
    if (ins.inserted && ins.evicted) {
      destage(cluster, *ins.evicted, via_client, loss_waste);
    }
  }

  bool step_hier_gd(std::uint64_t t, const Request& request, unsigned cluster,
                    unsigned shard) {
    Simulator::Proxy& local = sim.proxies_[cluster];
    Lane& lane = st.lanes[cluster];
    const ObjectNum object = request.object;
    const auto& lat = sim.config_.latencies;
    const ClientNum client = resolve_client(request.client, local);

    if (local.gd->contains(object)) {
      const double* stored = local.fetch_cost.find(object);
      local.gd->access(object, stored != nullptr
                                   ? *stored
                                   : lat.fetch_cost(ServedFrom::kOriginServer));
      account(lane, ServedFrom::kLocalProxy,
              lat.request_latency(ServedFrom::kLocalProxy), 0.0, 0.0);
      return true;
    }

    double waste = 0.0;
    double loss_waste = 0.0;
    double hop_latency = 0.0;

    // Local P2P client cache, gated by the LOCAL lookup directory (live; a
    // Bloom directory's false positives apply here exactly as sequentially).
    if (local.dir->may_contain(object)) {
      maybe_lose(lane, loss_waste);
      const auto fetched = local.p2p->fetch(object, client, /*remove_on_hit=*/true);
      lane.p2p_hops.add(static_cast<double>(fetched.hops));
      lane.hops_hist.add(static_cast<double>(fetched.hops));
      hop_latency += sim.config_.p2p_hop_latency * fetched.hops;
      if (fetched.hit) {
        ++lane.directory_true_positives;
        local.dir->remove(object);
        ++lane.directory_removes;
        log_digest(lane, object, DA::kDir, false);
        admit(cluster, object, lat.fetch_cost(ServedFrom::kLocalP2P), client, loss_waste);
        account(lane, ServedFrom::kLocalP2P,
                lat.request_latency(ServedFrom::kLocalP2P) + hop_latency + loss_waste,
                loss_waste, hop_latency);
        return true;
      }
      ++lane.directory_false_positives;
      waste += lat.p2p_fetch();
      if (sim.config_.directory == DirectoryKind::kExact) {
        local.dir->remove(object);
        log_digest(lane, object, DA::kDir, false);
      }
    }

    // Cooperating clusters, via the epoch-start digests: advertised proxy
    // copies first (cheaper), then the push protocol against the first
    // cluster whose directory advertised the object.
    ServedFrom served = ServedFrom::kOriginServer;
    const int holder = first_holder_in_ring(mask_of(st.digest_primary, object), cluster);
    if (holder >= 0) {
      St::DeferredOp op;
      op.pos = t;
      op.object = object;
      op.source = cluster;
      op.target = static_cast<std::uint32_t>(holder);
      op.kind = St::OpKind::kGdAccess;
      st.outbox[shard].push_back(op);
      served = ServedFrom::kRemoteProxy;
    } else {
      const int push_to = first_holder_in_ring(mask_of(st.digest_dir, object), cluster);
      if (push_to >= 0) {
        ++lane.push_requests;
        maybe_lose(lane, loss_waste);
        St::DeferredOp op;
        op.pos = t;
        op.object = object;
        op.source = cluster;
        op.target = static_cast<std::uint32_t>(push_to);
        op.kind = St::OpKind::kPushFetch;
        op.raw_client = request.client;
        op.waste = waste;
        op.loss_waste = loss_waste;
        op.hop_latency = hop_latency;
        st.outbox[shard].push_back(op);
        return false;  // phase 2b completes the request
      }
    }

    admit(cluster, object, lat.fetch_cost(served), client, loss_waste);
    account(lane, served,
            lat.request_latency(served) + waste + hop_latency + loss_waste,
            waste + loss_waste, hop_latency);
    return true;
  }

  void step_squirrel(const Request& request, unsigned cluster) const {
    Simulator::Proxy& org = sim.proxies_[cluster];
    Lane& lane = st.lanes[cluster];
    const ObjectNum object = request.object;
    const auto& lat = sim.config_.latencies;
    const ClientNum client = resolve_client(request.client, org);

    double loss_waste = 0.0;
    maybe_lose(lane, loss_waste);
    const auto fetched = org.p2p->fetch(object, client, /*remove_on_hit=*/false);
    lane.p2p_hops.add(static_cast<double>(fetched.hops));
    lane.hops_hist.add(static_cast<double>(fetched.hops));
    const double hop_latency = sim.config_.p2p_hop_latency * fetched.hops;

    if (fetched.hit) {
      account(lane, ServedFrom::kLocalP2P, lat.p2p_fetch() + hop_latency + loss_waste,
              loss_waste, hop_latency);
      return;
    }
    maybe_lose(lane, loss_waste);  // the home-store leg may also time out
    account(lane, ServedFrom::kOriginServer,
            lat.p2p_fetch() + lat.server() + hop_latency + loss_waste, loss_waste,
            hop_latency);
    (void)org.p2p->store(object, lat.fetch_cost(ServedFrom::kOriginServer), client);
  }

  // --- phases ----------------------------------------------------------------

  void phase1(unsigned shard, std::uint64_t base, std::uint64_t end) {
    const std::size_t chunk = sim.config_.replay_chunk > 0
                                  ? sim.config_.replay_chunk
                                  : workload::default_replay_chunk();
    std::uint64_t pos = base;
    while (pos < end) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(end - pos, static_cast<std::uint64_t>(chunk)));
      const auto win = sim.source_->window(pos, want);
      if (win.empty()) break;  // defensive: a well-formed source never starves
      // This shard's slice of the chunk: the positions of its own clusters,
      // in trace order.
      for (std::size_t i = 0; i < win.size(); ++i) {
        const std::uint64_t t = pos + i;
        const auto cluster = static_cast<unsigned>(t % P);
        if (cluster % S != shard) continue;
        const Request& request = win[i];
        Lane& lane = st.lanes[cluster];
        advance_churn(cluster, t);
        if (browser_lookup(lane, request, cluster)) continue;
        if (step(t, request, cluster, shard)) {
          browser_fill(cluster, request.client, request.object);
        }
      }
      pos += win.size();
    }
  }

  void phase2a(unsigned shard) {
    std::vector<St::DeferredOp*> inbound;
    for (auto& box : st.outbox) {
      for (auto& op : box) {
        if (op.target % S == shard) inbound.push_back(&op);
      }
    }
    // Trace positions are unique (at most one deferred op per request), so
    // the position sort is a total order independent of which outbox an op
    // came from.
    std::sort(inbound.begin(), inbound.end(),
              [](const St::DeferredOp* a, const St::DeferredOp* b) {
                return a->pos < b->pos;
              });

    const auto& lat = sim.config_.latencies;
    const double refetch = lat.fetch_cost(ServedFrom::kOriginServer);
    for (St::DeferredOp* op : inbound) {
      const unsigned target = op->target;
      advance_churn(target, op->pos);
      Simulator::Proxy& remote = sim.proxies_[target];
      Lane& lane = st.lanes[target];
      switch (op->kind) {
        case St::OpKind::kProxyAccess:
          // The advertised copy may have been evicted mid-epoch; the refresh
          // is then a no-op (the requester's outcome stands — it read the
          // epoch-start advertisement).
          if (remote.cache->contains(op->object)) remote.cache->access(op->object, refetch);
          break;
        case St::OpKind::kTieredRefresh:
          if (remote.tiered->locate(op->object) != TieredCache::Where::kMiss) {
            remote.tiered->refresh(op->object, refetch);
          }
          break;
        case St::OpKind::kGdAccess:
          if (remote.gd->contains(op->object)) {
            const double* stored = remote.fetch_cost.find(op->object);
            remote.gd->access(op->object, stored != nullptr ? *stored : refetch);
          }
          break;
        case St::OpKind::kPushFetch: {
          const ClientNum push_client = resolve_client(op->raw_client, remote);
          const auto fetched =
              remote.p2p->fetch(op->object, push_client, /*remove_on_hit=*/false);
          op->hit = fetched.hit;
          op->hops = fetched.hops;
          if (!fetched.hit && sim.config_.directory == DirectoryKind::kExact) {
            remote.dir->remove(op->object);
            log_digest(lane, op->object, DA::kDir, false);
          }
          break;
        }
      }
    }
  }

  void phase2b(unsigned shard) {
    const auto& lat = sim.config_.latencies;
    for (St::DeferredOp& op : st.outbox[shard]) {
      if (op.kind != St::OpKind::kPushFetch) continue;
      const unsigned cluster = op.source;
      Simulator::Proxy& local = sim.proxies_[cluster];
      Lane& lane = st.lanes[cluster];

      double waste = op.waste;
      double loss_waste = op.loss_waste;
      double hop_latency = op.hop_latency + sim.config_.p2p_hop_latency * op.hops;
      lane.p2p_hops.add(static_cast<double>(op.hops));
      lane.hops_hist.add(static_cast<double>(op.hops));

      ServedFrom served = ServedFrom::kOriginServer;
      if (op.hit) {
        ++lane.push_transfers;
        ++lane.directory_true_positives;
        served = ServedFrom::kRemoteP2P;
      } else {
        ++lane.directory_false_positives;
        waste += lat.proxy_to_proxy() + lat.p2p_fetch();
      }

      const ClientNum client = resolve_client(op.raw_client, local);
      admit(cluster, op.object, lat.fetch_cost(served), client, loss_waste);
      account(lane, served,
              lat.request_latency(served) + waste + hop_latency + loss_waste,
              waste + loss_waste, hop_latency);
      // The deferred request's browser fill lands at completion time.
      browser_fill(cluster, op.raw_client, op.object);
    }
  }

  /// Epoch-end flush, single-threaded at the barrier: digest change logs
  /// apply in cluster-ascending order, outboxes clear, the consumed trace
  /// prefix is released.
  void flush_epoch(std::uint64_t epoch_end) noexcept {
    for (unsigned c = 0; c < P; ++c) {
      Lane& lane = st.lanes[c];
      for (const auto& delta : lane.log) {
        std::vector<ClusterBitset>& digest = delta.array == DA::kPrimary
                                                 ? st.digest_primary
                                                 : delta.array == DA::kSecondary
                                                       ? st.digest_secondary
                                                       : st.digest_dir;
        if (delta.object >= digest.size()) continue;  // defensive; sized to universe
        if (delta.present) {
          digest[delta.object].set(c);
        } else {
          digest[delta.object].reset(c);
        }
      }
      lane.log.clear();
    }
    for (auto& box : st.outbox) box.clear();
    sim.source_->discard_consumed(epoch_end);
  }
};

Metrics Simulator::run_sharded() {
  ShardedRunEngine engine(*this);
  ShardedState& st = *sharded_;
  const std::uint64_t total = source_->size();
  const unsigned S = st.shards;

  if (total > 0) {
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::atomic<bool> abort{false};

    // One barrier object cycles through the three per-epoch phases; the
    // completion step (exclusive by the barrier contract) flushes digests
    // and advances the epoch after phase 2b.
    std::uint64_t flushed = 0;
    int stage = 0;
    auto on_complete = [&]() noexcept {
      stage = (stage + 1) % 3;
      if (stage != 0) return;
      const std::uint64_t end = std::min(flushed + st.epoch_len, total);
      engine.flush_epoch(end);
      flushed = end;
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(S), on_complete);

    const auto worker = [&](unsigned shard) {
      // An exception in any phase aborts the useful work but every thread
      // keeps arriving at the barriers (loop counts are identical across
      // shards), so nobody deadlocks; the first error rethrows after join.
      const auto guarded = [&](auto&& phase_fn) {
        if (abort.load(std::memory_order_relaxed)) return;
        try {
          phase_fn();
        } catch (...) {
          abort.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      };
      for (std::uint64_t base = 0; base < total;) {
        const std::uint64_t end = std::min(base + st.epoch_len, total);
        guarded([&] { engine.phase1(shard, base, end); });
        sync.arrive_and_wait();
        guarded([&] { engine.phase2a(shard); });
        sync.arrive_and_wait();
        guarded([&] { engine.phase2b(shard); });
        sync.arrive_and_wait();
        base = end;
      }
    };

    if (S == 1) {
      worker(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(S);
      for (unsigned s = 0; s < S; ++s) threads.emplace_back(worker, s);
      for (auto& thread : threads) thread.join();
    }
    if (first_error) std::rethrow_exception(first_error);

    // Fault-counter parity with the sequential engine: events scheduled after
    // a cluster's last touch still fire by end of run.
    for (unsigned c = 0; c < engine.P; ++c) engine.advance_churn(c, total - 1);
  }

  sharded_fold();
  return metrics_view();
}

void Simulator::sharded_fold() {
  ShardedState& st = *sharded_;
  // Lane accumulators -> the canonical instruments, cluster-ascending, so the
  // floating-point merge order is a pure function of the configuration.
  for (unsigned c = 0; c < config_.num_proxies; ++c) {
    const ShardedState::Lane& lane = st.lanes[c];
    inst_.requests.inc(lane.requests);
    inst_.hits_browser.inc(lane.hits_browser);
    inst_.hits_local_proxy.inc(lane.hits_local_proxy);
    inst_.hits_local_p2p.inc(lane.hits_local_p2p);
    inst_.hits_remote_proxy.inc(lane.hits_remote_proxy);
    inst_.hits_remote_p2p.inc(lane.hits_remote_p2p);
    inst_.server_fetches.inc(lane.server_fetches);
    inst_.fault_crashes.inc(lane.fault_crashes);
    inst_.fault_rejoins.inc(lane.fault_rejoins);
    inst_.fault_joins.inc(lane.fault_joins);
    inst_.fault_repairs.inc(lane.fault_repairs);
    inst_.fault_objects_lost.inc(lane.fault_objects_lost);
    inst_.total_latency.add(lane.total_latency);
    inst_.wasted_p2p_latency.add(lane.wasted_p2p_latency);
    inst_.p2p_hop_latency_total.add(lane.hop_latency_total);
    inst_.p2p_hops.merge(lane.p2p_hops);
    inst_.latency_hist.merge(lane.latency_hist);
    inst_.hops_hist.merge(lane.hops_hist);
    msg_.destage_piggybacked.inc(lane.destage_piggybacked);
    msg_.destage_bytes.inc(lane.destage_bytes);
    msg_.directory_adds.inc(lane.directory_adds);
    msg_.directory_removes.inc(lane.directory_removes);
    msg_.push_requests.inc(lane.push_requests);
    msg_.push_transfers.inc(lane.push_transfers);
    msg_.directory_true_positives.inc(lane.directory_true_positives);
    msg_.directory_false_positives.inc(lane.directory_false_positives);
    msg_.p2p_messages_lost.inc(lane.p2p_messages_lost);
    msg_.p2p_retries.inc(lane.p2p_retries);
  }
  // Per-cluster component instruments: replay each cluster's index range of
  // its shard registry into the canonical registry, cluster-ascending — the
  // exact registration order the sequential constructor produces, so JSON/CSV
  // exports are byte-identical for any shard count.
  for (unsigned c = 0; c < config_.num_proxies; ++c) {
    const ShardedState::Lane& lane = st.lanes[c];
    const obs::Registry& reg = *st.shard_registries[c % st.shards];
    for (std::size_t i = lane.c0; i < lane.c1; ++i) {
      const std::string& name = reg.counter_names()[i];
      registry_->counter(name).inc(reg.counter_value(name));
    }
    for (std::size_t i = lane.g0; i < lane.g1; ++i) {
      const std::string& name = reg.gauge_names()[i];
      registry_->gauge(name).add(reg.gauge_value(name));
    }
    for (std::size_t i = lane.s0; i < lane.s1; ++i) {
      const std::string& name = reg.stat_names()[i];
      registry_->stat(name).merge(*reg.find_stat(name));
    }
    for (std::size_t i = lane.h0; i < lane.h1; ++i) {
      const std::string& name = reg.histogram_names()[i];
      const Histogram* hist = reg.find_histogram(name);
      registry_->histogram(name, hist->lo(), hist->hi(), hist->buckets()).merge(*hist);
    }
  }
}

}  // namespace webcache::sim
