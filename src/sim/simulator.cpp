#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/cluster_bitset.hpp"
#include "sim/sharded.hpp"

namespace webcache::sim {

using net::ServedFrom;

Simulator::Instruments::Instruments(obs::Registry& registry,
                                    const net::LatencyModel& latencies)
    : requests(registry.counter("sim.requests")),
      hits_browser(registry.counter("sim.hits_browser")),
      hits_local_proxy(registry.counter("sim.hits_local_proxy")),
      hits_local_p2p(registry.counter("sim.hits_local_p2p")),
      hits_remote_proxy(registry.counter("sim.hits_remote_proxy")),
      hits_remote_p2p(registry.counter("sim.hits_remote_p2p")),
      server_fetches(registry.counter("sim.server_fetches")),
      fault_crashes(registry.counter("fault.crashes")),
      fault_rejoins(registry.counter("fault.rejoins")),
      fault_joins(registry.counter("fault.joins")),
      fault_repairs(registry.counter("fault.repairs")),
      fault_objects_lost(registry.counter("fault.objects_lost")),
      total_latency(registry.gauge("sim.total_latency")),
      wasted_p2p_latency(registry.gauge("sim.wasted_p2p_latency")),
      p2p_hop_latency_total(registry.gauge("sim.p2p_hop_latency_total")),
      p2p_hops(registry.stat("sim.p2p_hops")),
      // A request costs at most ~Ts plus waste surcharges; 4*Ts with 40
      // buckets resolves the Tl/Tc/Tp2p/Ts levels cleanly.
      latency_hist(registry.histogram("sim.request_latency", 0.0,
                                      4.0 * latencies.server(), 40)),
      hops_hist(registry.histogram("sim.p2p_hops", 0.0, 16.0, 16)) {}

Simulator::Simulator(SimConfig config, const workload::TraceSource& source)
    : Simulator(std::move(config), nullptr, &source) {}

Simulator::Simulator(SimConfig config, const workload::Trace& trace)
    : Simulator(std::move(config),
                std::make_unique<workload::MaterializedTraceSource>(trace), nullptr) {}

Simulator::Simulator(SimConfig config, std::unique_ptr<const workload::TraceSource> owned,
                     const workload::TraceSource* external)
    : config_(std::move(config)),
      owned_source_(std::move(owned)),
      source_(external != nullptr ? external : owned_source_.get()),
      registry_(config_.registry ? config_.registry : std::make_shared<obs::Registry>()),
      inst_(*registry_, config_.latencies),
      msg_(*registry_, "net.") {
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

  // Intra-run sharding: any sim_shards >= 1 on a supported shape selects the
  // sharded engine. Clusters then bind their instruments into per-shard
  // registries and cooperate through epoch-start digests instead of the
  // live residency index; unsupported shapes keep the sequential engine at
  // any sim_shards value (see SimConfig::sim_shards).
  if (config_.sim_shards > 0 && sharding_supported(config_)) {
    sharded_ = std::make_unique<ShardedState>();
    ShardedState& st = *sharded_;
    st.shards = std::min(config_.sim_shards, config_.num_proxies);
    st.epoch_len = config_.shard_epoch > 0 ? config_.shard_epoch : kDefaultShardEpoch;
    st.shard_registries.reserve(st.shards);
    for (unsigned s = 0; s < st.shards; ++s) {
      st.shard_registries.push_back(std::make_unique<obs::Registry>());
    }
    st.lanes.reserve(config_.num_proxies);
    for (unsigned c = 0; c < config_.num_proxies; ++c) {
      st.lanes.emplace_back(config_.latencies);
    }
    st.outbox.resize(st.shards);
    st.use_primary = proxies_cooperate(config_.scheme);
    st.use_secondary = config_.scheme == Scheme::kSC_EC;
    st.use_dir = config_.scheme == Scheme::kHierGD;
    if (st.use_primary) st.digest_primary.assign(universe, ClusterBitset{});
    if (st.use_secondary) st.digest_secondary.assign(universe, ClusterBitset{});
    if (st.use_dir) st.digest_dir.assign(universe, ClusterBitset{});
  }

  // The residency index accelerates the cooperative remote-lookup scans; one
  // bit per proxy caps the fast path at 64 proxies (beyond that the
  // historical per-proxy probe loops take over). The sharded engine replaces
  // it with the epoch digests above.
  residency_enabled_ =
      !sharded_ && proxies_cooperate(config_.scheme) && config_.num_proxies <= 64;
  if (residency_enabled_) {
    res_primary_.assign(universe, 0);
    if (config_.scheme == Scheme::kSC_EC || config_.scheme == Scheme::kFC_EC) {
      res_secondary_.assign(universe, 0);
    }
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

  if (sharded_) {
    // Per-cluster slices of the globally sorted schedule (the stable filter
    // preserves same-cluster order) and per-(seed, cluster) loss substreams,
    // so each lane's draws depend only on its own event/transfer sequence.
    std::vector<std::vector<fault::ChurnEvent>> per_cluster(config_.num_proxies);
    for (const auto& event : churn_.events()) {
      if (event.proxy >= config_.num_proxies) {
        throw std::invalid_argument("Simulator: failure event references unknown proxy");
      }
      per_cluster[event.proxy].push_back(event);
    }
    for (unsigned c = 0; c < config_.num_proxies; ++c) {
      ShardedState::Lane& lane = sharded_->lanes[c];
      lane.churn = fault::ChurnEngine(std::move(per_cluster[c]));
      lane.loss = fault::LossModel(
          config_.p2p_loss_rate,
          SplitMix64(config_.seed ^ 0x4c4f5353ULL ^ (0x9e3779b97f4a7c15ULL * (c + 1)))
              .next());
    }
  }

  proxies_.resize(config_.num_proxies);
  for (unsigned p = 0; p < config_.num_proxies; ++p) {
    Proxy& proxy = proxies_[p];
    const std::string proxy_prefix = "proxy" + std::to_string(p) + ".";
    const std::string cluster_prefix = "cluster" + std::to_string(p) + ".";
    // Sharded runs bind each cluster's instruments into its shard's private
    // registry (no cross-thread sharing on the hot path); the post-run fold
    // replays them into the canonical registry in cluster order. The index
    // ranges recorded around the construction identify exactly this
    // cluster's block inside the shard registry.
    obs::Registry& reg =
        sharded_ ? *sharded_->shard_registries[p % sharded_->shards] : *registry_;
    ShardedState::Lane* lane = sharded_ ? &sharded_->lanes[p] : nullptr;
    if (lane != nullptr) {
      lane->c0 = reg.counter_names().size();
      lane->g0 = reg.gauge_names().size();
      lane->s0 = reg.stat_names().size();
      lane->h0 = reg.histogram_names().size();
    }
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
        proxy.cache = cache::make_cache(config_.proxy_policy, config_.proxy_capacity,
                                        config_.lfu_mode);
        if (proxy.cache == nullptr) {
          proxy.cache =
              std::make_unique<cache::LfuCache>(config_.proxy_capacity, config_.lfu_mode);
        }
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
        auto tier1 = cache::make_cache(config_.proxy_policy, config_.proxy_capacity,
                                       config_.lfu_mode);
        if (tier1 == nullptr) {
          tier1 = std::make_unique<cache::LfuCache>(config_.proxy_capacity, config_.lfu_mode);
        }
        auto tier2 =
            cache::make_cache(config_.client_policy, p2p_capacity, config_.lfu_mode);
        if (tier2 == nullptr) {
          tier2 = std::make_unique<cache::LfuCache>(p2p_capacity, config_.lfu_mode);
        }
        proxy.tiered = std::make_unique<TieredCache>(std::move(tier1), std::move(tier2));
        proxy.tiered->reserve_universe(universe);
        proxy.tiered->bind_observability(reg, proxy_prefix + "tiered.");
        if (residency_enabled_) {
          proxy.tiered->set_transition_hook(
              [this, p](ObjectNum object, TieredCache::Where now) {
                switch (now) {
                  case TieredCache::Where::kTier1:
                    residency_set(res_primary_, object, p);
                    residency_clear(res_secondary_, object, p);
                    break;
                  case TieredCache::Where::kTier2:
                    residency_set(res_secondary_, object, p);
                    residency_clear(res_primary_, object, p);
                    break;
                  case TieredCache::Where::kMiss:
                    residency_clear(res_primary_, object, p);
                    residency_clear(res_secondary_, object, p);
                    break;
                }
              });
        } else if (sharded_ && config_.scheme == Scheme::kSC_EC) {
          // Sharded SC-EC: tier transitions feed the cluster's digest change
          // log instead of the live residency index; the deltas apply to the
          // shared digests at the epoch barrier. Only this cluster's shard
          // fires the hook (refreshes never change membership), so the log
          // stays single-writer.
          proxy.tiered->set_transition_hook(
              [lane](ObjectNum object, TieredCache::Where now) {
                using DA = ShardedState::DigestArray;
                switch (now) {
                  case TieredCache::Where::kTier1:
                    lane->log.push_back({object, DA::kPrimary, true});
                    lane->log.push_back({object, DA::kSecondary, false});
                    break;
                  case TieredCache::Where::kTier2:
                    lane->log.push_back({object, DA::kSecondary, true});
                    lane->log.push_back({object, DA::kPrimary, false});
                    break;
                  case TieredCache::Where::kMiss:
                    lane->log.push_back({object, DA::kPrimary, false});
                    lane->log.push_back({object, DA::kSecondary, false});
                    break;
                }
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
        proxy.gd = cache::make_cache(config_.proxy_policy, config_.proxy_capacity,
                                     config_.lfu_mode);
        if (proxy.gd == nullptr) {
          proxy.gd = std::make_unique<cache::GreedyDualCache>(config_.proxy_capacity);
        }
        p2p::P2PConfig pc;
        pc.clients = config_.clients_per_cluster;
        pc.per_client_capacity = config_.client_cache_capacity;
        pc.capacity_spread = config_.capacity_spread;
        pc.overlay = config_.overlay;
        pc.enable_diversion = config_.enable_diversion;
        pc.client_policy = config_.client_policy;
        pc.name_prefix = "cluster" + std::to_string(p);
        proxy.p2p = std::make_unique<p2p::P2PClientCache>(pc, object_ids_, &reg);
        proxy.fetch_cost.reserve(universe);
        proxy.gd->reserve_universe(universe);
        proxy.gd->bind_observability(reg, proxy_prefix + "cache.");
        if (config_.directory == DirectoryKind::kExact) {
          proxy.dir = std::make_unique<directory::ExactDirectory>(&reg,
                                                                  cluster_prefix + "dir.");
        } else {
          proxy.dir = std::make_unique<directory::BloomDirectory>(
              object_ids_, p2p_capacity, config_.bloom_target_fpr, &reg,
              cluster_prefix + "dir.");
        }
        break;
      }
      case Scheme::kSquirrel: {
        // Proxy-less: only the federated browser caches exist. No lookup
        // directory — requests route straight to the object's home node.
        p2p::P2PConfig pc;
        pc.clients = config_.clients_per_cluster;
        pc.per_client_capacity = config_.client_cache_capacity;
        pc.capacity_spread = config_.capacity_spread;
        pc.overlay = config_.overlay;
        pc.enable_diversion = config_.enable_diversion;
        pc.client_policy = config_.client_policy;
        pc.name_prefix = "org" + std::to_string(p);
        proxy.p2p = std::make_unique<p2p::P2PClientCache>(pc, object_ids_, &reg);
        break;
      }
    }
    if (lane != nullptr) {
      lane->c1 = reg.counter_names().size();
      lane->g1 = reg.gauge_names().size();
      lane->s1 = reg.stat_names().size();
      lane->h1 = reg.histogram_names().size();
    }
  }
}

bool Simulator::sharding_supported(const SimConfig& config) {
  // FC/FC-EC: the clairvoyant cost-benefit coordinator couples every proxy's
  // replacement decisions per request — inherently globally sequential.
  if (config.scheme == Scheme::kFC || config.scheme == Scheme::kFC_EC) return false;
  // Interval snapshots and the event tracer are globally ordered streams of
  // the sequential engine, as are checkpoint/audit hooks (they probe global
  // mid-run state at exact positions).
  if (config.snapshot_interval > 0 || config.trace_capacity > 0) return false;
  if (config.checkpoint_hook) return false;
  // A single cluster has nothing to parallelize over.
  if (config.num_proxies < 2) return false;
  // The cooperation digests are fixed 256-bit ClusterBitsets.
  if (proxies_cooperate(config.scheme) && config.num_proxies > ClusterBitset::kMaxClusters) {
    return false;
  }
  return true;
}

Simulator::~Simulator() = default;

int Simulator::first_remote_holder(std::uint64_t mask, unsigned local) const {
  mask &= ~(std::uint64_t{1} << local);  // ring scan excludes the local proxy
  if (mask == 0) return -1;
  // Ring order from local+1 upward, wrapping past the top proxy to 0.
  const std::uint64_t later = local + 1 >= 64 ? 0 : mask >> (local + 1);
  if (later != 0) {
    return static_cast<int>(local + 1 + static_cast<unsigned>(std::countr_zero(later)));
  }
  return std::countr_zero(mask);
}

const p2p::P2PClientCache* Simulator::p2p_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].p2p.get() : nullptr;
}

const directory::LookupDirectory* Simulator::directory_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].dir.get() : nullptr;
}

const cache::Cache* Simulator::proxy_cache_of(unsigned proxy) const {
  if (proxy >= proxies_.size()) return nullptr;
  const Proxy& p = proxies_[proxy];
  return p.cache ? p.cache.get() : p.gd.get();
}

const TieredCache* Simulator::tiered_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].tiered.get() : nullptr;
}

const cache::CostBenefitCache* Simulator::unified_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].unified.get() : nullptr;
}

const cache::LruCache* Simulator::tier_tracker_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].tier_tracker.get() : nullptr;
}

const cache::LruCache* Simulator::browser_of(unsigned proxy, ClientNum client) const {
  if (proxy >= proxies_.size()) return nullptr;
  const Proxy& p = proxies_[proxy];
  return client < p.browsers.size() ? p.browsers[client].get() : nullptr;
}

const DenseMap<double>* Simulator::fetch_costs_of(unsigned proxy) const {
  return proxy < proxies_.size() ? &proxies_[proxy].fetch_cost : nullptr;
}

ClientNum Simulator::client_of(const Request& request, const Proxy& proxy) const {
  ClientNum c = request.client % config_.clients_per_cluster;
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

void Simulator::account(ServedFrom where, double wasted_latency, double hop_latency) {
  account_raw(where,
              config_.latencies.request_latency(where) + wasted_latency + hop_latency,
              wasted_latency, hop_latency);
}

void Simulator::account_raw(ServedFrom where, double latency, double wasted_latency,
                            double hop_latency) {
  // Timeouts from injected P2P losses belong to the request in flight: fold
  // them into its latency as waste and clear the queue.
  if (pending_loss_waste_ != 0.0) {
    latency += pending_loss_waste_;
    wasted_latency += pending_loss_waste_;
    pending_loss_waste_ = 0.0;
  }
  inst_.requests.inc();
  switch (where) {
    case ServedFrom::kBrowser: inst_.hits_browser.inc(); break;
    case ServedFrom::kLocalProxy: inst_.hits_local_proxy.inc(); break;
    case ServedFrom::kLocalP2P: inst_.hits_local_p2p.inc(); break;
    case ServedFrom::kRemoteProxy: inst_.hits_remote_proxy.inc(); break;
    case ServedFrom::kRemoteP2P: inst_.hits_remote_p2p.inc(); break;
    case ServedFrom::kOriginServer: inst_.server_fetches.inc(); break;
  }
  inst_.total_latency.add(latency);
  inst_.wasted_p2p_latency.add(wasted_latency);
  inst_.p2p_hop_latency_total.add(hop_latency);
  inst_.latency_hist.add(latency);
  // Optional layers: the tracer records the request-level event, tick()
  // advances the snapshot clock. Both compile to nothing under
  // WEBCACHE_OBS_NO_TRACE and cost one predictable branch otherwise.
  registry_->record(now_, static_cast<std::uint32_t>(where), latency, wasted_latency);
  registry_->tick();
}

bool Simulator::browser_lookup(const Request& request, unsigned proxy_index) {
  Proxy& proxy = proxies_[proxy_index];
  if (proxy.browsers.empty()) return false;
  auto& browser = *proxy.browsers[request.client % config_.clients_per_cluster];
  if (!browser.contains(request.object)) return false;
  browser.access(request.object, 0.0);
  account(ServedFrom::kBrowser, 0.0);
  return true;
}

void Simulator::browser_fill(const Request& request, unsigned proxy_index) {
  Proxy& proxy = proxies_[proxy_index];
  if (proxy.browsers.empty()) return;
  auto& browser = *proxy.browsers[request.client % config_.clients_per_cluster];
  if (!browser.contains(request.object)) {
    browser.insert(request.object, 0.0);  // private cache; evictions vanish
  }
}

void Simulator::apply_churn(const fault::ChurnEvent& event) {
  if (event.proxy >= proxies_.size()) {
    throw std::invalid_argument("Simulator: failure event references unknown proxy");
  }
  Proxy& proxy = proxies_[event.proxy];
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
      inst_.fault_crashes.inc();
      inst_.fault_objects_lost.inc(lost.size());
      break;
    }
    case fault::ChurnAction::kRejoin: {
      const ClientNum target = event.client % proxy.p2p->cluster_size();
      if (proxy.p2p->revive_client(target)) inst_.fault_rejoins.inc();
      break;
    }
    case fault::ChurnAction::kJoin:
      (void)proxy.p2p->add_client();
      inst_.fault_joins.inc();
      break;
    case fault::ChurnAction::kRepair:
      proxy.p2p->repair();
      inst_.fault_repairs.inc();
      break;
  }
}

void Simulator::maybe_lose_p2p_message() {
  if (!loss_.enabled()) return;
  if (loss_.lose_message()) {
    msg_.p2p_messages_lost.inc();
    msg_.p2p_retries.inc();
    pending_loss_waste_ += config_.latencies.loss_retry_penalty();
  }
}

Metrics Simulator::run() {
  if (ran_) throw std::logic_error("Simulator::run: already ran (one-shot)");
  ran_ = true;

  if (sharded_) return run_sharded();

  const std::uint64_t checkpoint = config_.checkpoint_interval;
  bool checked_at_end = false;
  const std::uint64_t total = source_->size();
  // Replay in bounded windows: a materialized source hands back one spanning
  // window, an mmap source pages sequentially and releases consumed chunks.
  const std::size_t chunk =
      config_.replay_chunk > 0 ? config_.replay_chunk : workload::default_replay_chunk();
  for (std::uint64_t base = 0; base < total;) {
    const auto win = source_->window(base, chunk);
    if (win.empty()) break;  // defensive: a well-formed source never starves
    for (std::size_t i = 0; i < win.size(); ++i) {
      const std::uint64_t t = base + i;
      const Request& request = win[i];
      churn_.advance(t, [this](const fault::ChurnEvent& e) { apply_churn(e); });
      now_ = t;
      const auto proxy_index = static_cast<unsigned>(t % config_.num_proxies);
      if (!browser_lookup(request, proxy_index)) {
        step(request, proxy_index);
        browser_fill(request, proxy_index);
      }
      if (checkpoint > 0 && config_.checkpoint_hook && (t + 1) % checkpoint == 0) {
        config_.checkpoint_hook(*this, t + 1);
        checked_at_end = t + 1 == total;
      }
    }
    base += win.size();
    source_->discard_consumed(base);
  }
  // Always audit the final state, but not twice.
  if (config_.checkpoint_hook && !checked_at_end) {
    config_.checkpoint_hook(*this, total);
  }
  return metrics_view();
}

Metrics Simulator::metrics_view() const {
  Metrics m;
  m.requests = inst_.requests.value();
  m.hits_browser = inst_.hits_browser.value();
  m.hits_local_proxy = inst_.hits_local_proxy.value();
  m.hits_local_p2p = inst_.hits_local_p2p.value();
  m.hits_remote_proxy = inst_.hits_remote_proxy.value();
  m.hits_remote_p2p = inst_.hits_remote_p2p.value();
  m.server_fetches = inst_.server_fetches.value();
  m.total_latency = inst_.total_latency.value();
  m.wasted_p2p_latency = inst_.wasted_p2p_latency.value();
  m.p2p_hop_latency_total = inst_.p2p_hop_latency_total.value();
  m.p2p_hops = inst_.p2p_hops;
  // Simulator-level protocol messages plus each cluster's P2P substrate
  // traffic; the increment sets are disjoint, so the merge is a plain sum.
  m.messages = msg_.view();
  for (const auto& proxy : proxies_) {
    if (proxy.p2p) m.messages.merge(proxy.p2p->messages());
  }
  return m;
}

void Simulator::step(const Request& request, unsigned proxy_index) {
  switch (config_.scheme) {
    case Scheme::kNC:
    case Scheme::kSC:
    case Scheme::kFC:
      step_basic(request, proxy_index);
      break;
    case Scheme::kNC_EC:
    case Scheme::kSC_EC:
      step_tiered_ec(request, proxy_index);
      break;
    case Scheme::kFC_EC:
      step_fc_ec(request, proxy_index);
      break;
    case Scheme::kHierGD:
      step_hier_gd(request, proxy_index);
      break;
    case Scheme::kSquirrel:
      step_squirrel(request, proxy_index);
      break;
  }
}

// --- NC / SC / FC ------------------------------------------------------------

void Simulator::step_basic(const Request& request, unsigned proxy_index) {
  Proxy& local = proxies_[proxy_index];
  const ObjectNum object = request.object;

  // Clairvoyant bookkeeping: this request is no longer in the future.
  if (coordinator_) coordinator_->consume(object);

  if (local.cache->contains(object)) {
    local.cache->access(object, config_.latencies.fetch_cost(ServedFrom::kOriginServer));
    account(ServedFrom::kLocalProxy, 0.0);
    return;
  }

  ServedFrom served = ServedFrom::kOriginServer;
  if (proxies_cooperate(config_.scheme)) {
    if (residency_enabled_) {
      const int holder = first_remote_holder(residency_mask(res_primary_, object),
                                             proxy_index);
      if (holder >= 0) {
        proxies_[static_cast<unsigned>(holder)].cache->access(
            object, config_.latencies.fetch_cost(ServedFrom::kOriginServer));
        served = ServedFrom::kRemoteProxy;
      }
    } else {
      for (unsigned q = 1; q < config_.num_proxies; ++q) {
        Proxy& remote = proxies_[(proxy_index + q) % config_.num_proxies];
        if (remote.cache->contains(object)) {
          remote.cache->access(object,
                               config_.latencies.fetch_cost(ServedFrom::kOriginServer));
          served = ServedFrom::kRemoteProxy;
          break;
        }
      }
    }
  }

  // SC always copies what it fetched; FC's cost-benefit policy may decline.
  const auto ins = local.cache->insert(object, config_.latencies.fetch_cost(served));
  if (residency_enabled_ && ins.inserted) {
    residency_set(res_primary_, object, proxy_index);
    if (ins.evicted) residency_clear(res_primary_, *ins.evicted, proxy_index);
  }
  account(served, 0.0);
}

// --- NC-EC / SC-EC ------------------------------------------------------------

void Simulator::step_tiered_ec(const Request& request, unsigned proxy_index) {
  Proxy& local = proxies_[proxy_index];
  const ObjectNum object = request.object;
  const double refetch = config_.latencies.fetch_cost(ServedFrom::kOriginServer);

  const auto where = local.tiered->locate(object);
  if (where != TieredCache::Where::kMiss) {
    local.tiered->access(object, refetch);
    account(where == TieredCache::Where::kTier1 ? ServedFrom::kLocalProxy
                                                : ServedFrom::kLocalP2P,
            0.0);
    return;
  }

  ServedFrom served = ServedFrom::kOriginServer;
  if (config_.scheme == Scheme::kSC_EC) {
    // Prefer a remote proxy hit (Tc) over a remote P2P hit (Tc + Tp2p).
    Proxy* tier2_holder = nullptr;
    if (residency_enabled_) {
      const int t1 = first_remote_holder(residency_mask(res_primary_, object), proxy_index);
      if (t1 >= 0) {
        proxies_[static_cast<unsigned>(t1)].tiered->refresh(object, refetch);
        served = ServedFrom::kRemoteProxy;
      } else {
        const int t2 =
            first_remote_holder(residency_mask(res_secondary_, object), proxy_index);
        if (t2 >= 0) tier2_holder = &proxies_[static_cast<unsigned>(t2)];
      }
    } else {
      for (unsigned q = 1; q < config_.num_proxies && served == ServedFrom::kOriginServer;
           ++q) {
        Proxy& remote = proxies_[(proxy_index + q) % config_.num_proxies];
        switch (remote.tiered->locate(object)) {
          case TieredCache::Where::kTier1:
            remote.tiered->refresh(object, refetch);
            served = ServedFrom::kRemoteProxy;
            break;
          case TieredCache::Where::kTier2:
            if (tier2_holder == nullptr) tier2_holder = &remote;
            break;
          case TieredCache::Where::kMiss:
            break;
        }
      }
    }
    if (served == ServedFrom::kOriginServer && tier2_holder != nullptr) {
      // Push protocol: the remote cluster's client cache pushes the object
      // up through its own proxy.
      tier2_holder->tiered->refresh(object, refetch);
      served = ServedFrom::kRemoteP2P;
      msg_.push_requests.inc();
      msg_.push_transfers.inc();
    }
  }

  local.tiered->admit(object, config_.latencies.fetch_cost(served));
  account(served, 0.0);
}

// --- FC-EC ---------------------------------------------------------------------

void Simulator::track_tier1(unsigned proxy_index, ObjectNum object) {
  Proxy& proxy = proxies_[proxy_index];
  if (proxy.tier_tracker->contains(object)) {
    proxy.tier_tracker->access(object, 0.0);
  } else {
    const auto ins = proxy.tier_tracker->insert(object, 0.0);
    if (residency_enabled_ && ins.inserted) {
      residency_set(res_primary_, object, proxy_index);
      // The tracker's LRU evictee demotes to tier-2 residence (it is still
      // in the unified cache, i.e. still in res_secondary_).
      if (ins.evicted) residency_clear(res_primary_, *ins.evicted, proxy_index);
    }
  }
}

void Simulator::step_fc_ec(const Request& request, unsigned proxy_index) {
  Proxy& local = proxies_[proxy_index];
  const ObjectNum object = request.object;

  // Clairvoyant bookkeeping: this request is no longer in the future.
  coordinator_->consume(object);

  if (local.unified->contains(object)) {
    const bool tier1 = local.tier_tracker->contains(object);
    local.unified->access(object, 0.0);
    track_tier1(proxy_index, object);  // tier-2 hits promote into proxy residence
    account(tier1 ? ServedFrom::kLocalProxy : ServedFrom::kLocalP2P, 0.0);
    return;
  }

  ServedFrom served = ServedFrom::kOriginServer;
  Proxy* tier2_holder = nullptr;
  if (residency_enabled_) {
    // Tracker membership is a subset of unified membership, so res_primary_
    // alone identifies remote tier-1 holders.
    const int t1 = first_remote_holder(residency_mask(res_primary_, object), proxy_index);
    if (t1 >= 0) {
      proxies_[static_cast<unsigned>(t1)].unified->access(object, 0.0);
      served = ServedFrom::kRemoteProxy;
    } else {
      const int t2 = first_remote_holder(
          residency_mask(res_secondary_, object) & ~residency_mask(res_primary_, object),
          proxy_index);
      if (t2 >= 0) tier2_holder = &proxies_[static_cast<unsigned>(t2)];
    }
  } else {
    for (unsigned q = 1; q < config_.num_proxies && served == ServedFrom::kOriginServer;
         ++q) {
      Proxy& remote = proxies_[(proxy_index + q) % config_.num_proxies];
      if (!remote.unified->contains(object)) continue;
      if (remote.tier_tracker->contains(object)) {
        remote.unified->access(object, 0.0);
        served = ServedFrom::kRemoteProxy;
      } else if (tier2_holder == nullptr) {
        tier2_holder = &remote;
      }
    }
  }
  if (served == ServedFrom::kOriginServer && tier2_holder != nullptr) {
    tier2_holder->unified->access(object, 0.0);
    served = ServedFrom::kRemoteP2P;
    msg_.push_requests.inc();
    msg_.push_transfers.inc();
  }

  const auto ins = local.unified->insert(object, config_.latencies.fetch_cost(served));
  if (ins.inserted) {
    if (residency_enabled_) {
      residency_set(res_secondary_, object, proxy_index);
      if (ins.evicted) residency_clear(res_secondary_, *ins.evicted, proxy_index);
    }
    track_tier1(proxy_index, object);
    if (ins.evicted) {
      local.tier_tracker->erase(*ins.evicted);
      if (residency_enabled_) residency_clear(res_primary_, *ins.evicted, proxy_index);
    }
  }
  account(served, 0.0);
}

// --- Hier-GD ---------------------------------------------------------------------

void Simulator::destage_hier_gd(Proxy& proxy, ObjectNum victim, ClientNum via_client) {
  // Piggybacked on the HTTP response already going to via_client (Sec. 4.4).
  msg_.destage_piggybacked.inc();
  msg_.destage_bytes.inc();  // unit-size objects

  const double* stored = proxy.fetch_cost.find(victim);
  const double credit =
      stored != nullptr ? *stored : config_.latencies.fetch_cost(ServedFrom::kOriginServer);
  maybe_lose_p2p_message();  // the destage transfer itself may time out
  const auto outcome = proxy.p2p->store(victim, credit, via_client);
  inst_.p2p_hops.add(static_cast<double>(outcome.hops));
  inst_.hops_hist.add(static_cast<double>(outcome.hops));

  if (outcome.stored && !outcome.already_present) {
    proxy.dir->add(victim);
    msg_.directory_adds.inc();
  }
  if (outcome.displaced) {
    proxy.dir->remove(*outcome.displaced);
    msg_.directory_removes.inc();
  }
}

void Simulator::admit_hier_gd(unsigned proxy_index, ObjectNum object, double cost,
                              ClientNum via_client) {
  Proxy& proxy = proxies_[proxy_index];
  proxy.fetch_cost[object] = cost;
  const auto ins = proxy.gd->insert(object, cost);
  if (residency_enabled_ && ins.inserted) {
    residency_set(res_primary_, object, proxy_index);
    if (ins.evicted) residency_clear(res_primary_, *ins.evicted, proxy_index);
  }
  if (ins.inserted && ins.evicted) {
    destage_hier_gd(proxy, *ins.evicted, via_client);
  }
}

void Simulator::step_hier_gd(const Request& request, unsigned proxy_index) {
  Proxy& local = proxies_[proxy_index];
  const ObjectNum object = request.object;
  const ClientNum client = client_of(request, local);

  // Local proxy cache.
  if (local.gd->contains(object)) {
    const double* stored = local.fetch_cost.find(object);
    local.gd->access(object, stored != nullptr
                                 ? *stored
                                 : config_.latencies.fetch_cost(ServedFrom::kOriginServer));
    account(ServedFrom::kLocalProxy, 0.0);
    return;
  }

  double waste = 0.0;
  double hop_latency = 0.0;

  // Local P2P client cache, gated by the lookup directory.
  if (local.dir->may_contain(object)) {
    maybe_lose_p2p_message();
    const auto fetched = local.p2p->fetch(object, client, /*remove_on_hit=*/true);
    inst_.p2p_hops.add(static_cast<double>(fetched.hops));
    inst_.hops_hist.add(static_cast<double>(fetched.hops));
    hop_latency += config_.p2p_hop_latency * fetched.hops;
    if (fetched.hit) {
      msg_.directory_true_positives.inc();
      local.dir->remove(object);
      msg_.directory_removes.inc();
      // Promote into the proxy; the proxy's eviction destages back down.
      admit_hier_gd(proxy_index, object,
                    config_.latencies.fetch_cost(ServedFrom::kLocalP2P), client);
      account(ServedFrom::kLocalP2P, 0.0, hop_latency);
      return;
    }
    // False positive (Bloom directory, or staleness after client failures):
    // the overlay round trip was wasted.
    msg_.directory_false_positives.inc();
    waste += config_.latencies.p2p_fetch();
    // An exact directory learns the truth from the failed lookup. A
    // counting-Bloom directory must NOT erase a key it never inserted —
    // that would corrupt shared counters into false negatives.
    if (config_.directory == DirectoryKind::kExact) local.dir->remove(object);
  }

  // Cooperating proxies: their caches first (cheaper), then their P2P
  // client caches via the push protocol (Sec. 4.5).
  ServedFrom served = ServedFrom::kOriginServer;
  Proxy* push_holder = nullptr;
  ClientNum push_client = 0;
  if (residency_enabled_) {
    const int holder = first_remote_holder(residency_mask(res_primary_, object),
                                           proxy_index);
    if (holder >= 0) {
      Proxy& remote = proxies_[static_cast<unsigned>(holder)];
      const double* stored = remote.fetch_cost.find(object);
      remote.gd->access(object,
                        stored != nullptr
                            ? *stored
                            : config_.latencies.fetch_cost(ServedFrom::kOriginServer));
      served = ServedFrom::kRemoteProxy;
    } else {
      // No remote proxy holds it: the push candidate is the first cluster in
      // ring order whose directory answers positively (exactly what the
      // historical full scan selected when every gd probe missed).
      for (unsigned q = 1; q < config_.num_proxies; ++q) {
        Proxy& remote = proxies_[(proxy_index + q) % config_.num_proxies];
        if (remote.dir->may_contain(object)) {
          push_holder = &remote;
          push_client = client_of(request, remote);
          break;
        }
      }
    }
  } else {
    for (unsigned q = 1; q < config_.num_proxies && served == ServedFrom::kOriginServer;
         ++q) {
      Proxy& remote = proxies_[(proxy_index + q) % config_.num_proxies];
      if (remote.gd->contains(object)) {
        const double* stored = remote.fetch_cost.find(object);
        remote.gd->access(object,
                          stored != nullptr
                              ? *stored
                              : config_.latencies.fetch_cost(ServedFrom::kOriginServer));
        served = ServedFrom::kRemoteProxy;
      } else if (push_holder == nullptr && remote.dir->may_contain(object)) {
        push_holder = &remote;
        push_client = client_of(request, remote);
      }
    }
  }

  if (served == ServedFrom::kOriginServer && push_holder != nullptr) {
    msg_.push_requests.inc();
    maybe_lose_p2p_message();
    const auto fetched = push_holder->p2p->fetch(object, push_client, /*remove_on_hit=*/false);
    inst_.p2p_hops.add(static_cast<double>(fetched.hops));
    inst_.hops_hist.add(static_cast<double>(fetched.hops));
    hop_latency += config_.p2p_hop_latency * fetched.hops;
    if (fetched.hit) {
      msg_.push_transfers.inc();
      msg_.directory_true_positives.inc();
      served = ServedFrom::kRemoteP2P;
    } else {
      msg_.directory_false_positives.inc();
      waste += config_.latencies.proxy_to_proxy() + config_.latencies.p2p_fetch();
      if (config_.directory == DirectoryKind::kExact) push_holder->dir->remove(object);
    }
  }

  admit_hier_gd(proxy_index, object, config_.latencies.fetch_cost(served), client);
  account(served, waste, hop_latency);
}

// --- Squirrel (extension) -------------------------------------------------------

void Simulator::step_squirrel(const Request& request, unsigned proxy_index) {
  Proxy& org = proxies_[proxy_index];
  const ObjectNum object = request.object;
  const ClientNum client = client_of(request, org);

  // The requesting client routes straight to the object's home node. A home
  // hit serves at LAN cost; on a miss the home node fetches from the origin
  // server, caches the object (home-store model) and forwards it.
  maybe_lose_p2p_message();
  const auto fetched = org.p2p->fetch(object, client, /*remove_on_hit=*/false);
  inst_.p2p_hops.add(static_cast<double>(fetched.hops));
  inst_.hops_hist.add(static_cast<double>(fetched.hops));
  const double hop_latency = config_.p2p_hop_latency * fetched.hops;

  if (fetched.hit) {
    account_raw(ServedFrom::kLocalP2P, config_.latencies.p2p_fetch() + hop_latency,
                /*wasted_latency=*/0.0, hop_latency);
    return;
  }
  // The home-store leg may also time out; draw it before accounting so its
  // retry penalty lands on this request, not the next one.
  maybe_lose_p2p_message();
  account_raw(ServedFrom::kOriginServer,
              config_.latencies.p2p_fetch() + config_.latencies.server() + hop_latency,
              /*wasted_latency=*/0.0, hop_latency);
  // The home node stores the object with its refetch cost as the credit.
  // (store() routes again from the client; the message count conservatively
  // includes both legs.)
  (void)org.p2p->store(object, config_.latencies.fetch_cost(net::ServedFrom::kOriginServer),
                       client);
}

Metrics run_simulation(const SimConfig& config, const workload::Trace& trace) {
  Simulator sim(config, trace);
  return sim.run();
}

Metrics run_simulation(const SimConfig& config, const workload::TraceSource& source) {
  Simulator sim(config, source);
  return sim.run();
}

}  // namespace webcache::sim
