#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/sharded.hpp"

namespace webcache::sim {

using net::ServedFrom;

Simulator::Outcomes::Outcomes(obs::Registry& reg, const net::LatencyModel& latencies)
    : registry(reg),
      requests(reg.counter("sim.requests")),
      hits_browser(reg.counter("sim.hits_browser")),
      hits_local_proxy(reg.counter("sim.hits_local_proxy")),
      hits_local_p2p(reg.counter("sim.hits_local_p2p")),
      hits_remote_proxy(reg.counter("sim.hits_remote_proxy")),
      hits_remote_p2p(reg.counter("sim.hits_remote_p2p")),
      server_fetches(reg.counter("sim.server_fetches")),
      fault_crashes(reg.counter("fault.crashes")),
      fault_rejoins(reg.counter("fault.rejoins")),
      fault_joins(reg.counter("fault.joins")),
      fault_repairs(reg.counter("fault.repairs")),
      fault_objects_lost(reg.counter("fault.objects_lost")),
      total_latency(reg.gauge("sim.total_latency")),
      wasted_p2p_latency(reg.gauge("sim.wasted_p2p_latency")),
      p2p_hop_latency_total(reg.gauge("sim.p2p_hop_latency_total")),
      p2p_hops(reg.stat("sim.p2p_hops")),
      // A request costs at most ~Ts plus waste surcharges; 4*Ts with 40
      // buckets resolves the Tl/Tc/Tp2p/Ts levels cleanly.
      latency_hist(reg.histogram("sim.request_latency", 0.0,
                                      4.0 * latencies.server(), 40)),
      hops_hist(reg.histogram("sim.p2p_hops", 0.0, 16.0, 16)),
      msg(reg, "net.") {}

Simulator::Simulator(SimConfig config, const workload::TraceSource& source)
    : config_(std::move(config)),
      source_(&source),
      registry_(config_.registry ? config_.registry : std::make_shared<obs::Registry>()),
      out_(*registry_, config_.latencies) {
  const ObjectNum universe = source_->distinct_objects();
  registry_->set_snapshot_interval(config_.snapshot_interval);
  if (config_.trace_capacity > 0) registry_->enable_tracing(config_.trace_capacity);
  if (config_.num_proxies == 0) {
    throw std::invalid_argument("Simulator: need at least one proxy");
  }
  if (proxies_cooperate(config_.scheme) && config_.num_proxies < 2) {
    throw std::invalid_argument("Simulator: cooperative schemes need >= 2 proxies");
  }
  // Policy overrides: FC/FC-EC are defined by the clairvoyant cost-benefit
  // coordinator, so a replacement-policy override there is a contradiction,
  // not a configuration.
  if (config_.proxy_policy != cache::PolicyKind::kDefault &&
      (config_.scheme == Scheme::kFC || config_.scheme == Scheme::kFC_EC)) {
    throw std::invalid_argument(
        "Simulator: FC/FC-EC cannot take a proxy-policy override — the "
        "clairvoyant cost-benefit coordinator is the scheme");
  }
  if (config_.client_policy != cache::PolicyKind::kDefault &&
      config_.scheme == Scheme::kFC_EC) {
    throw std::invalid_argument(
        "Simulator: FC-EC unifies both tiers under the clairvoyant "
        "coordinator; a client-policy override cannot apply");
  }

  const std::size_t p2p_capacity =
      static_cast<std::size_t>(config_.clients_per_cluster) * config_.client_cache_capacity;
  // Policy overrides, else the paper's: greedy-dual at the Hier-GD proxy,
  // LFU-DA at the NC/SC proxy and both *-EC tiers. (Hier-GD's client caches
  // resolve theirs in the P2P layer.)
  const cache::PolicyKind proxy_policy = cache::resolve_default(
      config_.proxy_policy, config_.scheme == Scheme::kHierGD ? cache::PolicyKind::kGreedyDual
                                                              : cache::PolicyKind::kLfu);
  const cache::PolicyKind tier2_policy =
      cache::resolve_default(config_.client_policy, cache::PolicyKind::kLfu);

  // Perfect frequency knowledge for the cost-benefit schemes. A sweep shares
  // one precomputed analysis across all its jobs; a lone simulator scans the
  // trace itself.
  if (config_.scheme == Scheme::kFC || config_.scheme == Scheme::kFC_EC) {
    std::shared_ptr<const workload::TraceStats> stats = config_.trace_stats;
    if (stats && stats->total_requests != source_->size()) {
      throw std::invalid_argument(
          "Simulator: config.trace_stats was computed from a different trace");
    }
    if (!stats) {
      stats = std::make_shared<const workload::TraceStats>(workload::analyze(*source_));
    }
    coordinator_ = std::make_unique<cache::CostBenefitCoordinator>(
        workload::per_proxy_frequency(*stats, config_.num_proxies), config_.num_proxies,
        config_.latencies.server(), config_.latencies.proxy_to_proxy());
  }

  if (config_.scheme == Scheme::kHierGD || config_.scheme == Scheme::kSquirrel) {
    // Ring placement is a pure function of the object universe, so run_sweep
    // shares one precomputed table across schemes and jobs (like trace_stats).
    if (config_.object_ids) {
      if (config_.object_ids->size() != universe) {
        throw std::invalid_argument(
            "Simulator: config.object_ids was built for a different object universe");
      }
      object_ids_ = config_.object_ids;
    } else {
      object_ids_ = directory::build_object_id_table(universe);
    }
  }

  const bool addressable_clients =
      config_.scheme == Scheme::kHierGD || config_.scheme == Scheme::kSquirrel;
  if (!config_.churn_events.empty() && !addressable_clients) {
    throw std::invalid_argument(
        "Simulator: client failures need individually addressable client caches "
        "(Hier-GD or Squirrel)");
  }
  if (config_.p2p_loss_rate != 0.0 && !addressable_clients) {
    throw std::invalid_argument(
        "Simulator: P2P message loss needs a P2P tier (Hier-GD or Squirrel)");
  }
  churn_ = fault::ChurnEngine(config_.churn_events);
  // Private loss stream forked off the run seed: enabling loss perturbs no
  // other draw, and the run stays a pure function of its configuration.
  loss_ = fault::LossModel(config_.p2p_loss_rate,
                           SplitMix64(config_.seed ^ 0x4c4f5353ULL).next());

  // Intra-run sharding: any sim_shards >= 1 on a supported shape selects the
  // sharded engine, whose clusters count into per-cluster lanes and
  // cooperate through epoch-start digests; unsupported shapes keep the
  // sequential engine at any sim_shards value (see SimConfig::sim_shards).
  if (config_.sim_shards > 0 && sharding_supported(config_)) {
    sharded_ = std::make_unique<ShardedState>(config_, churn_.events());
  }

  // The cooperation index (the sharded engine's digests): one ClusterSets
  // per role the scheme reads (see CoopSet).
  if (proxies_cooperate(config_.scheme)) {
    coop_[kPrimary] = ClusterSets(config_.num_proxies, universe);
    if (config_.scheme == Scheme::kSC_EC || config_.scheme == Scheme::kFC_EC) {
      coop_[kSecondary] = ClusterSets(config_.num_proxies, universe);
    }
    if (sharded_ && config_.scheme == Scheme::kHierGD) {
      coop_[kDir] = ClusterSets(config_.num_proxies, universe);
    }
  }

  // Hier-GD's and Squirrel's P2P client caches differ only in their name.
  const auto make_p2p = [this](std::string name_prefix, obs::Registry& reg) {
    p2p::P2PConfig pc;
    pc.clients = config_.clients_per_cluster;
    pc.per_client_capacity = config_.client_cache_capacity;
    pc.capacity_spread = config_.capacity_spread;
    pc.overlay = config_.overlay;
    pc.enable_diversion = config_.enable_diversion;
    pc.client_policy = config_.client_policy;
    pc.name_prefix = std::move(name_prefix);
    return std::make_unique<p2p::P2PClientCache>(pc, object_ids_, &reg);
  };
  proxies_.resize(config_.num_proxies);
  for (unsigned p = 0; p < config_.num_proxies; ++p) {
    Proxy& proxy = proxies_[p];
    const std::string proxy_prefix = "proxy" + std::to_string(p) + ".";
    const std::string cluster_prefix = "cluster" + std::to_string(p) + ".";
    // Sharded runs bind each cluster's instruments into its lane's private
    // registry (no cross-thread sharing on the hot path); the run's end
    // merges the lanes into the canonical registry in cluster order.
    ShardedState::Lane* lane = sharded_ ? sharded_->lanes[p].get() : nullptr;
    obs::Registry& reg = lane != nullptr ? lane->registry : *registry_;
    proxy.out = lane != nullptr ? &lane->out : &out_;
    proxy.loss = lane != nullptr ? &lane->loss : &loss_;
    if (config_.browser_cache_capacity > 0) {
      proxy.browsers.reserve(config_.clients_per_cluster);
      for (ClientNum c = 0; c < config_.clients_per_cluster; ++c) {
        proxy.browsers.push_back(
            std::make_unique<cache::LruCache>(config_.browser_cache_capacity));
      }
    }
    switch (config_.scheme) {
      case Scheme::kNC:
      case Scheme::kSC:
        proxy.cache = cache::make_cache(proxy_policy, config_.proxy_capacity);
        proxy.cache->reserve_universe(universe);
        proxy.cache->bind_observability(reg, proxy_prefix + "cache.");
        break;
      case Scheme::kFC:
        proxy.cache =
            std::make_unique<cache::CostBenefitCache>(config_.proxy_capacity, *coordinator_);
        proxy.cache->reserve_universe(universe);
        proxy.cache->bind_observability(reg, proxy_prefix + "cache.");
        break;
      case Scheme::kNC_EC:
      case Scheme::kSC_EC: {
        proxy.tiered =
            std::make_unique<TieredCache>(cache::make_cache(proxy_policy, config_.proxy_capacity),
                                          cache::make_cache(tier2_policy, p2p_capacity));
        proxy.tiered->reserve_universe(universe);
        proxy.tiered->bind_observability(reg, proxy_prefix + "tiered.");
        if (config_.scheme == Scheme::kSC_EC) {
          proxy.tiered->set_transition_hook([this, p](ObjectNum object, TieredCache::Where now) {
            mark(kPrimary, object, p, now == TieredCache::Where::kTier1);
            mark(kSecondary, object, p, now == TieredCache::Where::kTier2);
          });
        }
        break;
      }
      case Scheme::kFC_EC:
        proxy.unified = std::make_unique<cache::CostBenefitCache>(
            config_.proxy_capacity + p2p_capacity, *coordinator_);
        proxy.unified->reserve_universe(universe);
        proxy.unified->bind_observability(reg, proxy_prefix + "cache.");
        proxy.tier_tracker = std::make_unique<cache::LruCache>(config_.proxy_capacity);
        break;
      case Scheme::kHierGD: {
        proxy.cache = cache::make_cache(proxy_policy, config_.proxy_capacity);
        proxy.p2p = make_p2p("cluster" + std::to_string(p), reg);
        proxy.fetch_level.reserve(universe);
        proxy.cache->reserve_universe(universe);
        proxy.cache->bind_observability(reg, proxy_prefix + "cache.");
        if (config_.directory == DirectoryKind::kExact) {
          proxy.dir = std::make_unique<directory::ExactDirectory>(
              &reg, cluster_prefix + "dir.", p2p_capacity);
        } else {
          proxy.dir = std::make_unique<directory::BloomDirectory>(
              object_ids_, p2p_capacity, config_.bloom_target_fpr, &reg,
              cluster_prefix + "dir.");
        }
        break;
      }
      case Scheme::kSquirrel:
        // Proxy-less: only the federated browser caches exist. No lookup
        // directory — requests route straight to the object's home node.
        proxy.p2p = make_p2p("org" + std::to_string(p), reg);
        break;
    }
  }
}

bool Simulator::sharding_supported(const SimConfig& config) {
  // FC/FC-EC: the clairvoyant cost-benefit coordinator couples every proxy's
  // replacement decisions per request — inherently globally sequential.
  if (config.scheme == Scheme::kFC || config.scheme == Scheme::kFC_EC) return false;
  // Interval snapshots and the event tracer are globally ordered streams of
  // the sequential engine, as are invariant audits (they probe global
  // mid-run state at exact positions).
  if (config.snapshot_interval > 0 || config.trace_capacity > 0) return false;
  if (config.audit_interval) return false;
  // A single cluster has nothing to parallelize over.
  return config.num_proxies >= 2;
}

Simulator::~Simulator() = default;

const p2p::P2PClientCache* Simulator::p2p_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].p2p.get() : nullptr;
}

const directory::LookupDirectory* Simulator::directory_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].dir.get() : nullptr;
}

ClientNum Simulator::client_of(ClientNum raw, const Proxy& proxy) const {
  const ClientNum c = raw % config_.clients_per_cluster;
  if (proxy.p2p && !proxy.p2p->client_alive(c)) {
    // After fault injection a client may be gone; its user retries through a
    // neighbour's machine.
    for (ClientNum step = 1; step < config_.clients_per_cluster; ++step) {
      const ClientNum candidate = (c + step) % config_.clients_per_cluster;
      if (proxy.p2p->client_alive(candidate)) return candidate;
    }
    throw std::runtime_error("Simulator: all clients of a cluster have failed");
  }
  return c;
}

double Simulator::credit_of(const Proxy& proxy, ObjectNum object) const {
  const std::uint8_t* level = proxy.fetch_level.find(object);
  return config_.latencies.fetch_cost(level != nullptr ? static_cast<ServedFrom>(*level)
                                                       : ServedFrom::kOriginServer);
}

void Simulator::account(Outcomes& out, ServedFrom where, double base, double waste, double hop,
                        double loss_waste) {
  const double latency = base + waste + hop + loss_waste;
  const double wasted = waste + loss_waste;
  out.requests.inc();
  switch (where) {
    case ServedFrom::kBrowser: out.hits_browser.inc(); break;
    case ServedFrom::kLocalProxy: out.hits_local_proxy.inc(); break;
    case ServedFrom::kLocalP2P: out.hits_local_p2p.inc(); break;
    case ServedFrom::kRemoteProxy: out.hits_remote_proxy.inc(); break;
    case ServedFrom::kRemoteP2P: out.hits_remote_p2p.inc(); break;
    case ServedFrom::kOriginServer: out.server_fetches.inc(); break;
  }
  out.total_latency.add(latency);
  out.wasted_p2p_latency.add(wasted);
  out.p2p_hop_latency_total.add(hop);
  out.latency_hist.add(latency);
  // Optional tracer: one predictable branch when off.
  out.registry.record(replayed_, static_cast<std::uint32_t>(where), latency, wasted);
}

void Simulator::browser_fill(unsigned cluster, ClientNum raw_client, ObjectNum object) {
  Proxy& proxy = proxies_[cluster];
  if (proxy.browsers.empty()) return;
  auto& browser = *proxy.browsers[raw_client % config_.clients_per_cluster];
  if (!browser.contains(object)) {
    browser.insert(object, 0.0);  // private cache; evictions vanish
  }
}

void Simulator::apply_churn(const fault::ChurnEvent& event) {
  if (event.proxy >= proxies_.size()) {
    throw std::invalid_argument("Simulator: failure event references unknown proxy");
  }
  Proxy& proxy = proxies_[event.proxy];
  Outcomes& out = *proxy.out;
  switch (event.action) {
    case fault::ChurnAction::kCrash: {
      const ClientNum target = event.client % proxy.p2p->cluster_size();
      // No-op if the machine is already down; a crash that would take the
      // cluster's last live client is skipped (the paper's cluster always
      // has someone left to route from).
      if (!proxy.p2p->client_alive(target)) break;
      if (proxy.p2p->alive_clients() <= 1) break;
      // The crash silently loses the client's share of the P2P cache; the
      // proxy's directory is NOT told (that is the point of the experiment)
      // — it discovers the losses through failed lookups.
      const auto lost = proxy.p2p->fail_client(target);
      out.fault_crashes.inc();
      out.fault_objects_lost.inc(lost.size());
      break;
    }
    case fault::ChurnAction::kRejoin: {
      const ClientNum target = event.client % proxy.p2p->cluster_size();
      if (proxy.p2p->revive_client(target)) out.fault_rejoins.inc();
      break;
    }
    case fault::ChurnAction::kJoin:
      (void)proxy.p2p->add_client();
      out.fault_joins.inc();
      break;
    case fault::ChurnAction::kRepair:
      proxy.p2p->repair();
      out.fault_repairs.inc();
      break;
  }
}

void Simulator::maybe_lose_p2p_message(Proxy& proxy, double& loss_waste) {
  if (!proxy.loss->enabled()) return;
  if (proxy.loss->lose_message()) {
    proxy.out->msg.p2p_messages_lost.inc();
    proxy.out->msg.p2p_retries.inc();
    loss_waste += config_.latencies.loss_retry_penalty();
  }
}

Metrics Simulator::run() {
  if (ran_) throw std::logic_error("Simulator::run: already ran (one-shot)");
  ran_ = true;

  if (sharded_) return run_sharded();

  const std::uint64_t snapshot = config_.snapshot_interval;
  const std::uint64_t audit_every = config_.audit_interval.value_or(0);
  bool audited_at_end = false;
  const std::uint64_t total = source_->size();
  // Replay in bounded windows, releasing each consumed one: an mmap source
  // pages sequentially, so its resident set stays bounded by the window.
  workload::for_each_window(*source_, [&](std::span<const Request> win) {
    for (const Request& request : win) {
      const std::uint64_t t = replayed_;
      churn_.advance(t, [this](const fault::ChurnEvent& e) { apply_churn(e); });
      serve(t, request, static_cast<unsigned>(t % config_.num_proxies));
      replayed_ = t + 1;
      if (snapshot > 0 && replayed_ % snapshot == 0) registry_->snapshot(replayed_);
      if (audit_every > 0 && replayed_ % audit_every == 0) {
        audit_or_throw();
        audited_at_end = replayed_ == total;
      }
    }
  });
  // Always audit the final state, but not twice.
  if (config_.audit_interval && !audited_at_end) audit_or_throw();
  return metrics_view();
}

Metrics Simulator::metrics_view() const {
  Metrics m;
  m.requests = out_.requests.value();
  m.hits_browser = out_.hits_browser.value();
  m.hits_local_proxy = out_.hits_local_proxy.value();
  m.hits_local_p2p = out_.hits_local_p2p.value();
  m.hits_remote_proxy = out_.hits_remote_proxy.value();
  m.hits_remote_p2p = out_.hits_remote_p2p.value();
  m.server_fetches = out_.server_fetches.value();
  m.total_latency = out_.total_latency.value();
  m.wasted_p2p_latency = out_.wasted_p2p_latency.value();
  m.p2p_hop_latency_total = out_.p2p_hop_latency_total.value();
  m.p2p_hops = out_.p2p_hops;
  // Simulator-level protocol messages plus each cluster's P2P substrate
  // traffic; the increment sets are disjoint, so the merge is a plain sum.
  m.messages = out_.msg.view();
  for (const auto& proxy : proxies_) {
    if (proxy.p2p) m.messages.merge(proxy.p2p->messages());
  }
  return m;
}

void Simulator::serve(std::uint64_t t, const Request& request, unsigned cluster) {
  Proxy& proxy = proxies_[cluster];
  if (!proxy.browsers.empty()) {
    auto& browser = *proxy.browsers[request.client % config_.clients_per_cluster];
    if (browser.contains(request.object)) {
      browser.access(request.object, 0.0);
      account(*proxy.out, ServedFrom::kBrowser,
              config_.latencies.request_latency(ServedFrom::kBrowser));
      return;
    }
  }
  switch (config_.scheme) {
    case Scheme::kNC:
    case Scheme::kSC:
    case Scheme::kFC:
      step_basic(t, request, cluster);
      break;
    case Scheme::kNC_EC:
    case Scheme::kSC_EC:
      step_tiered_ec(t, request, cluster);
      break;
    case Scheme::kFC_EC:
      step_fc_ec(request, cluster);
      break;
    case Scheme::kHierGD:
      if (!step_hier_gd(t, request, cluster)) return;
      break;
    case Scheme::kSquirrel:
      step_squirrel(request, cluster);
      break;
  }
  browser_fill(cluster, request.client, request.object);
}

// --- engine seams ----------------------------------------------------------------

void Simulator::mark(CoopSet set, ObjectNum object, unsigned cluster, bool present) {
  if (sharded_) {
    sharded_->lanes[cluster]->log.push_back({object, set, present});
  } else if (set != kDir) {
    if (present) {
      coop_[set].set(object, cluster);
    } else {
      coop_[set].reset(object, cluster);
    }
  }
}

bool Simulator::remote(RemoteOp& op) {
  if (sharded_) {
    sharded_->outbox[op.source % sharded_->shards].push_back(op);
    return false;
  }
  apply_remote(op);
  return true;
}

void Simulator::apply_remote(RemoteOp& op) {
  Proxy& holder = proxies_[op.target];
  // A sharded requester read an epoch-start digest: the advertised copy may
  // have left since, and the refresh is then a no-op (the requester's
  // outcome stands).
  switch (op.kind) {
    case RemoteOp::Kind::kProxyAccess:
      if (holder.cache->contains(op.object)) {
        holder.cache->access(op.object, credit_of(holder, op.object));
      }
      break;
    case RemoteOp::Kind::kTieredRefresh:
      if (holder.tiered->locate(op.object) != TieredCache::Where::kMiss) {
        holder.tiered->refresh(op.object, config_.latencies.fetch_cost(ServedFrom::kOriginServer));
      }
      break;
    case RemoteOp::Kind::kPushFetch: {
      const auto fetched = holder.p2p->fetch(op.object, client_of(op.raw_client, holder),
                                             /*remove_on_hit=*/false);
      op.hit = fetched.hit;
      op.hops = fetched.hops;
      if (!fetched.hit && config_.directory == DirectoryKind::kExact) {
        holder.dir->remove(op.object);
        mark(kDir, op.object, op.target, false);
      }
      break;
    }
  }
}

// --- NC / SC / FC ------------------------------------------------------------

void Simulator::step_basic(std::uint64_t t, const Request& request, unsigned cluster) {
  Proxy& local = proxies_[cluster];
  const ObjectNum object = request.object;
  const auto& lat = config_.latencies;

  // Clairvoyant bookkeeping: this request is no longer in the future.
  if (coordinator_) coordinator_->consume(object);

  if (local.cache->contains(object)) {
    local.cache->access(object, lat.fetch_cost(ServedFrom::kOriginServer));
    account(*local.out, ServedFrom::kLocalProxy, lat.request_latency(ServedFrom::kLocalProxy));
    return;
  }

  ServedFrom served = ServedFrom::kOriginServer;
  if (const int holder = coop_[kPrimary].first_in_ring(object, cluster); holder >= 0) {
    RemoteOp op{.pos = t,
                .object = object,
                .source = cluster,
                .target = static_cast<std::uint32_t>(holder),
                .kind = RemoteOp::Kind::kProxyAccess};
    (void)remote(op);
    served = ServedFrom::kRemoteProxy;
  }

  // SC always copies what it fetched; FC's cost-benefit policy may decline.
  const auto ins = local.cache->insert(object, lat.fetch_cost(served));
  if (proxies_cooperate(config_.scheme) && ins.inserted) {
    mark(kPrimary, object, cluster, true);
    if (ins.evicted) mark(kPrimary, *ins.evicted, cluster, false);
  }
  account(*local.out, served, lat.request_latency(served));
}

// --- NC-EC / SC-EC ------------------------------------------------------------

std::pair<int, ServedFrom> Simulator::remote_holder(unsigned cluster, ObjectNum object) {
  if (const int holder = coop_[kPrimary].first_in_ring(object, cluster); holder >= 0) {
    return {holder, ServedFrom::kRemoteProxy};
  }
  if (const int holder = coop_[kSecondary].first_in_ring(object, cluster); holder >= 0) {
    Outcomes& out = *proxies_[cluster].out;
    out.msg.push_requests.inc();
    out.msg.push_transfers.inc();
    return {holder, ServedFrom::kRemoteP2P};
  }
  return {-1, ServedFrom::kOriginServer};
}

void Simulator::step_tiered_ec(std::uint64_t t, const Request& request, unsigned cluster) {
  Proxy& local = proxies_[cluster];
  const ObjectNum object = request.object;
  const auto& lat = config_.latencies;

  const auto where = local.tiered->locate(object);
  if (where != TieredCache::Where::kMiss) {
    local.tiered->access(object, lat.fetch_cost(ServedFrom::kOriginServer));
    const ServedFrom from = where == TieredCache::Where::kTier1 ? ServedFrom::kLocalProxy
                                                               : ServedFrom::kLocalP2P;
    account(*local.out, from, lat.request_latency(from));
    return;
  }

  // SC-EC: the holder refreshes its copy in place.
  const auto [holder, served] = remote_holder(cluster, object);
  if (holder >= 0) {
    RemoteOp op{.pos = t,
                .object = object,
                .source = cluster,
                .target = static_cast<std::uint32_t>(holder),
                .kind = RemoteOp::Kind::kTieredRefresh};
    (void)remote(op);
  }

  local.tiered->admit(object, lat.fetch_cost(served));  // the transition hook marks
  account(*local.out, served, lat.request_latency(served));
}

// --- FC-EC ---------------------------------------------------------------------

void Simulator::track_tier1(unsigned cluster, ObjectNum object) {
  Proxy& proxy = proxies_[cluster];
  if (proxy.tier_tracker->contains(object)) {
    proxy.tier_tracker->access(object, 0.0);
    return;
  }
  const auto ins = proxy.tier_tracker->insert(object, 0.0);
  if (ins.inserted) {
    mark(kPrimary, object, cluster, true);
    // The tracker's LRU evictee demotes to tier-2 residence (it is still in
    // the unified cache, i.e. still in kSecondary).
    if (ins.evicted) mark(kPrimary, *ins.evicted, cluster, false);
  }
}

void Simulator::step_fc_ec(const Request& request, unsigned cluster) {
  Proxy& local = proxies_[cluster];
  const ObjectNum object = request.object;
  const auto& lat = config_.latencies;

  // Clairvoyant bookkeeping: this request is no longer in the future.
  coordinator_->consume(object);

  if (local.unified->contains(object)) {
    const bool tier1 = local.tier_tracker->contains(object);
    local.unified->access(object, 0.0);
    track_tier1(cluster, object);  // tier-2 hits promote into proxy residence
    const ServedFrom from = tier1 ? ServedFrom::kLocalProxy : ServedFrom::kLocalP2P;
    account(*local.out, from, lat.request_latency(from));
    return;
  }

  // Tracker membership is a subset of unified membership, so kPrimary alone
  // identifies remote tier-1 holders. The unified-cache scan runs only when
  // no remote cluster tracks the object, so every remote holder it finds is
  // a tier-2 one.
  const auto [holder, served] = remote_holder(cluster, object);
  if (holder >= 0) proxies_[static_cast<unsigned>(holder)].unified->access(object, 0.0);

  const auto ins = local.unified->insert(object, lat.fetch_cost(served));
  if (ins.inserted) {
    mark(kSecondary, object, cluster, true);
    if (ins.evicted) mark(kSecondary, *ins.evicted, cluster, false);
    track_tier1(cluster, object);
    if (ins.evicted) {
      local.tier_tracker->erase(*ins.evicted);
      mark(kPrimary, *ins.evicted, cluster, false);
    }
  }
  account(*local.out, served, lat.request_latency(served));
}

// --- Hier-GD ---------------------------------------------------------------------

void Simulator::destage_hier_gd(unsigned cluster, ObjectNum victim, ClientNum via_client,
                                double& loss_waste) {
  Proxy& proxy = proxies_[cluster];
  Outcomes& out = *proxy.out;
  // Piggybacked on the HTTP response already going to via_client (Sec. 4.4).
  out.msg.destage_piggybacked.inc();
  out.msg.destage_bytes.inc();  // unit-size objects

  const double credit = credit_of(proxy, victim);
  maybe_lose_p2p_message(proxy, loss_waste);  // the destage transfer itself may time out
  const auto outcome = proxy.p2p->store(victim, credit, via_client);
  out.p2p_hops.add(static_cast<double>(outcome.hops));
  out.hops_hist.add(static_cast<double>(outcome.hops));

  if (outcome.stored && !outcome.already_present) {
    proxy.dir->add(victim);
    out.msg.directory_adds.inc();
    mark(kDir, victim, cluster, true);
  }
  if (outcome.displaced) {
    proxy.dir->remove(*outcome.displaced);
    out.msg.directory_removes.inc();
    mark(kDir, *outcome.displaced, cluster, false);
  }
}

void Simulator::admit_hier_gd(unsigned cluster, ObjectNum object, ServedFrom level,
                              ClientNum via_client, double& loss_waste) {
  Proxy& proxy = proxies_[cluster];
  // A sharded push completing in phase 2b can find the object already
  // admitted by a later same-epoch request of its cluster (a local P2P hit);
  // in trace order the push came first and that request was a plain hit.
  // Honour the cache contract (insert() is only for uncached objects) by
  // refreshing instead, at the level recorded when it was admitted.
  if (proxy.cache->contains(object)) {
    proxy.cache->access(object, credit_of(proxy, object));
    return;
  }
  proxy.fetch_level.set(object, static_cast<std::uint8_t>(level));
  const auto ins = proxy.cache->insert(object, config_.latencies.fetch_cost(level));
  if (!ins.inserted) return;
  mark(kPrimary, object, cluster, true);
  if (ins.evicted) {
    mark(kPrimary, *ins.evicted, cluster, false);
    destage_hier_gd(cluster, *ins.evicted, via_client, loss_waste);
  }
}

bool Simulator::step_hier_gd(std::uint64_t t, const Request& request, unsigned cluster) {
  Proxy& local = proxies_[cluster];
  Outcomes& out = *local.out;
  const ObjectNum object = request.object;
  const auto& lat = config_.latencies;
  const ClientNum client = client_of(request.client, local);

  // Local proxy cache.
  if (local.cache->contains(object)) {
    local.cache->access(object, credit_of(local, object));
    account(out, ServedFrom::kLocalProxy, lat.request_latency(ServedFrom::kLocalProxy));
    return true;
  }

  double waste = 0.0;
  double loss_waste = 0.0;
  double hop_latency = 0.0;

  // Local P2P client cache, gated by the lookup directory.
  if (local.dir->may_contain(object)) {
    maybe_lose_p2p_message(local, loss_waste);
    const auto fetched = local.p2p->fetch(object, client, /*remove_on_hit=*/true);
    out.p2p_hops.add(static_cast<double>(fetched.hops));
    out.hops_hist.add(static_cast<double>(fetched.hops));
    hop_latency += config_.p2p_hop_latency * fetched.hops;
    if (fetched.hit) {
      out.msg.directory_true_positives.inc();
      local.dir->remove(object);
      out.msg.directory_removes.inc();
      mark(kDir, object, cluster, false);
      // Promote into the proxy; the proxy's eviction destages back down.
      admit_hier_gd(cluster, object, ServedFrom::kLocalP2P, client, loss_waste);
      account(out, ServedFrom::kLocalP2P, lat.request_latency(ServedFrom::kLocalP2P), 0.0,
              hop_latency, loss_waste);
      return true;
    }
    // False positive (Bloom directory, or staleness after client failures):
    // the overlay round trip was wasted.
    out.msg.directory_false_positives.inc();
    waste += lat.p2p_fetch();
    // An exact directory learns the truth from the failed lookup. A
    // counting-Bloom directory must NOT erase a key it never inserted —
    // that would corrupt shared counters into false negatives.
    if (config_.directory == DirectoryKind::kExact) {
      local.dir->remove(object);
      mark(kDir, object, cluster, false);
    }
  }

  // Cooperating proxies: their caches first (cheaper), then their P2P
  // client caches via the push protocol (Sec. 4.5).
  ServedFrom served = ServedFrom::kOriginServer;
  if (const int holder = coop_[kPrimary].first_in_ring(object, cluster); holder >= 0) {
    RemoteOp op{.pos = t,
                .object = object,
                .source = cluster,
                .target = static_cast<std::uint32_t>(holder),
                .kind = RemoteOp::Kind::kProxyAccess};
    (void)remote(op);
    served = ServedFrom::kRemoteProxy;
  } else {
    // The push candidate is the first cluster in ring order whose directory
    // has the object. The sharded engine reads the directory digest; the
    // sequential engine asks each remote directory in turn, which counts
    // its lookups and sees a Bloom directory's false positives.
    int push_to = -1;
    if (sharded_) {
      push_to = coop_[kDir].first_in_ring(object, cluster);
    } else {
      for (unsigned q = 1; q < config_.num_proxies && push_to < 0; ++q) {
        const unsigned r = (cluster + q) % config_.num_proxies;
        if (proxies_[r].dir->may_contain(object)) push_to = static_cast<int>(r);
      }
    }
    if (push_to >= 0) {
      out.msg.push_requests.inc();
      maybe_lose_p2p_message(local, loss_waste);
      RemoteOp op{.pos = t,
                  .object = object,
                  .source = cluster,
                  .target = static_cast<std::uint32_t>(push_to),
                  .kind = RemoteOp::Kind::kPushFetch,
                  .raw_client = request.client,
                  .waste = waste,
                  .loss_waste = loss_waste,
                  .hop_latency = hop_latency};
      if (!remote(op)) return false;  // phase 2b completes the request
      finish_push(op);
      return true;
    }
  }

  admit_hier_gd(cluster, object, served, client, loss_waste);
  account(out, served, lat.request_latency(served), waste, hop_latency, loss_waste);
  return true;
}

void Simulator::finish_push(const RemoteOp& op) {
  Proxy& local = proxies_[op.source];
  Outcomes& out = *local.out;
  const auto& lat = config_.latencies;
  out.p2p_hops.add(static_cast<double>(op.hops));
  out.hops_hist.add(static_cast<double>(op.hops));
  const double hop_latency = op.hop_latency + config_.p2p_hop_latency * op.hops;

  double waste = op.waste;
  ServedFrom served = ServedFrom::kOriginServer;
  if (op.hit) {
    out.msg.push_transfers.inc();
    out.msg.directory_true_positives.inc();
    served = ServedFrom::kRemoteP2P;
  } else {
    out.msg.directory_false_positives.inc();
    waste += lat.proxy_to_proxy() + lat.p2p_fetch();
  }

  double loss_waste = op.loss_waste;
  admit_hier_gd(op.source, op.object, served, client_of(op.raw_client, local), loss_waste);
  account(out, served, lat.request_latency(served), waste, hop_latency, loss_waste);
}

// --- Squirrel (extension) -------------------------------------------------------

void Simulator::step_squirrel(const Request& request, unsigned cluster) {
  Proxy& org = proxies_[cluster];
  Outcomes& out = *org.out;
  const ObjectNum object = request.object;
  const auto& lat = config_.latencies;
  const ClientNum client = client_of(request.client, org);

  // The requesting client routes straight to the object's home node. A home
  // hit serves at LAN cost; on a miss the home node fetches from the origin
  // server, caches the object (home-store model) and forwards it.
  double loss_waste = 0.0;
  maybe_lose_p2p_message(org, loss_waste);
  const auto fetched = org.p2p->fetch(object, client, /*remove_on_hit=*/false);
  out.p2p_hops.add(static_cast<double>(fetched.hops));
  out.hops_hist.add(static_cast<double>(fetched.hops));
  const double hop_latency = config_.p2p_hop_latency * fetched.hops;

  if (fetched.hit) {
    account(out, ServedFrom::kLocalP2P, lat.p2p_fetch(), 0.0, hop_latency, loss_waste);
    return;
  }
  // The home-store leg may also time out; draw it before accounting so its
  // retry penalty lands on this request.
  maybe_lose_p2p_message(org, loss_waste);
  account(out, ServedFrom::kOriginServer, lat.p2p_fetch() + lat.server(), 0.0, hop_latency,
          loss_waste);
  // The home node stores the object with its refetch cost as the credit.
  // (store() routes again from the client; the message count conservatively
  // includes both legs.)
  (void)org.p2p->store(object, lat.fetch_cost(ServedFrom::kOriginServer), client);
}

Metrics run_simulation(const SimConfig& config, const workload::TraceSource& source) {
  Simulator sim(config, source);
  return sim.run();
}

}  // namespace webcache::sim
