#include "layers.hpp"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <string>

#include "cache/cost_benefit.hpp"
#include "cache/policy.hpp"
#include "directory/directory.hpp"
#include "obs/registry.hpp"
#include "p2p/p2p_client_cache.hpp"
#include "pastry/node_id.hpp"
#include "pastry/overlay.hpp"
#include "sim/tiered_cache.hpp"

namespace perfbench {

using webcache::ClientNum;
using webcache::ObjectNum;
using webcache::Request;
namespace cache = webcache::cache;
namespace workload = webcache::workload;

namespace {

constexpr std::size_t kBatch = 4096;

/// Proxy 0's round-robin share of the stream (request t goes to proxy
/// t mod P), the stream one proxy's layers see.
struct Slice {
  std::vector<ObjectNum> objects;
  std::vector<ClientNum> clients;
  std::vector<std::uint64_t> positions;
};

Slice proxy_slice(const workload::TraceSource& source, unsigned proxies) {
  Slice s;
  const std::size_t chunk = workload::default_replay_chunk();
  for (std::uint64_t base = 0; base < source.size();) {
    const auto win = source.window(base, chunk);
    if (win.empty()) break;
    for (std::size_t i = 0; i < win.size(); ++i) {
      if ((base + i) % proxies != 0) continue;
      s.objects.push_back(win[i].object);
      s.clients.push_back(win[i].client);
      s.positions.push_back(base + i);
    }
    base += win.size();
  }
  return s;
}

/// Proxy-tier access pattern: a hit is accessed, a miss inserted.
void drive_cache(Tracer& tracer, const char* span, cache::Cache& c,
                 const std::vector<ObjectNum>& objects, double miss_cost) {
  for (std::size_t b = 0; b < objects.size(); b += kBatch) {
    const std::size_t e = std::min(objects.size(), b + kBatch);
    Scope scope(tracer, span, 2 * (e - b));
    for (std::size_t i = b; i < e; ++i) {
      if (c.contains(objects[i])) {
        c.access(objects[i], miss_cost);
      } else {
        (void)c.insert(objects[i], miss_cost);
      }
    }
  }
}

void decode_pass(const workload::TraceSource& source, Tracer& tracer) {
  const std::size_t chunk = workload::default_replay_chunk();
  std::uint64_t sum = 0;
  for (std::uint64_t base = 0; base < source.size();) {
    Scope scope(tracer, "workload.decode");
    const auto win = source.window(base, chunk);
    if (win.empty()) break;
    for (const Request& r : win) sum += r.object + r.client;
    base += win.size();
    source.discard_consumed(base);
    scope.set_calls(win.size());
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
}

void cost_benefit_pass(const LayerInputs& in, const workload::TraceStats& stats, Tracer& tracer) {
  cache::CostBenefitCoordinator coordinator(
      workload::per_proxy_frequency(stats, in.proxies), in.proxies, in.latencies.server(),
      in.latencies.proxy_to_proxy());
  std::vector<std::unique_ptr<cache::CostBenefitCache>> caches;
  for (unsigned p = 0; p < in.proxies; ++p) {
    caches.push_back(std::make_unique<cache::CostBenefitCache>(in.proxy_capacity, coordinator));
    caches.back()->reserve_universe(in.source->distinct_objects());
  }
  const double cost = in.latencies.server();
  for (std::uint64_t base = 0; base < in.source->size();) {
    const auto win = in.source->window(base, kBatch);
    if (win.empty()) break;
    Scope scope(tracer, "cache.cost_benefit.op", 3 * win.size());
    for (std::size_t i = 0; i < win.size(); ++i) {
      cache::CostBenefitCache& c = *caches[(base + i) % in.proxies];
      const ObjectNum o = win[i].object;
      coordinator.consume(o);
      if (c.contains(o)) {
        c.access(o, cost);
      } else {
        (void)c.insert(o, cost);
      }
    }
    base += win.size();
  }
}

void tiered_pass(const LayerInputs& in, const Slice& slice, Tracer& tracer) {
  webcache::sim::TieredCache tiered(
      cache::make_cache(cache::PolicyKind::kLfu, in.proxy_capacity),
      cache::make_cache(cache::PolicyKind::kLfu, in.clients * in.client_capacity));
  tiered.reserve_universe(in.source->distinct_objects());
  const double cost = in.latencies.server();
  // As the simulator does: locate, then access a resident object or admit a
  // missing one.
  for (std::size_t b = 0; b < slice.objects.size(); b += kBatch) {
    const std::size_t e = std::min(slice.objects.size(), b + kBatch);
    Scope scope(tracer, "sim.tiered.op", 2 * (e - b));
    for (std::size_t i = b; i < e; ++i) {
      if (tiered.locate(slice.objects[i]) == webcache::sim::TieredCache::Where::kMiss) {
        (void)tiered.admit(slice.objects[i], cost);
      } else {
        (void)tiered.access(slice.objects[i], cost);
      }
    }
  }
}

void directory_pass(const LayerInputs& in, const Slice& slice, Tracer& tracer) {
  webcache::obs::Registry registry;
  webcache::directory::ExactDirectory dir(&registry);
  std::deque<ObjectNum> added;
  double add_credit = 0.0;
  double remove_credit = 0.0;
  for (std::size_t b = 0; b < slice.objects.size(); b += kBatch) {
    const std::size_t e = std::min(slice.objects.size(), b + kBatch);
    Scope scope(tracer, "directory.op");
    std::uint64_t calls = 0;
    for (std::size_t i = b; i < e; ++i) {
      const ObjectNum o = slice.objects[i];
      ++calls;
      if (dir.may_contain(o)) continue;
      for (add_credit += in.dir_adds_per_lookup; add_credit >= 1.0; add_credit -= 1.0) {
        dir.add(o);
        added.push_back(o);
        ++calls;
      }
      for (remove_credit += in.dir_removes_per_lookup; remove_credit >= 1.0 && !added.empty();
           remove_credit -= 1.0) {
        dir.remove(added.front());
        added.pop_front();
        ++calls;
      }
    }
    scope.set_calls(calls);
  }
}

void pastry_pass(const LayerInputs& in, const Slice& slice, Tracer& tracer) {
  webcache::obs::Registry registry;
  std::vector<std::unique_ptr<webcache::pastry::Overlay>> overlays;
  std::vector<std::uint32_t> slots;
  for (unsigned p = 0; p < in.proxies; ++p) {
    const std::string prefix = "cluster" + std::to_string(p);
    overlays.push_back(
        std::make_unique<webcache::pastry::Overlay>(webcache::pastry::OverlayConfig{}, &registry,
                                                    prefix + ".pastry."));
    Scope scope(tracer, "pastry.build", in.clients);
    for (ClientNum c = 0; c < in.clients; ++c) {
      const auto slot =
          overlays.back()->add_node(webcache::pastry::node_id_for(prefix + "/client" + std::to_string(c)));
      if (p == 0) slots.push_back(slot);
    }
  }
  webcache::pastry::Overlay& overlay = *overlays.front();
  const auto& ids = *in.object_ids;
  std::uint64_t hops = 0;
  for (std::size_t b = 0; b < slice.objects.size(); b += kBatch) {
    const std::size_t e = std::min(slice.objects.size(), b + kBatch);
    Scope scope(tracer, "pastry.route", e - b);
    for (std::size_t i = b; i < e; ++i) {
      hops += overlay.route(slots[slice.clients[i] % in.clients], ids[slice.objects[i]]).hops;
    }
  }
  volatile std::uint64_t sink = hops;
  (void)sink;
}

webcache::p2p::P2PConfig p2p_config(const LayerInputs& in) {
  webcache::p2p::P2PConfig cfg;
  cfg.clients = in.clients;
  cfg.per_client_capacity = in.client_capacity;
  cfg.name_prefix = "cluster0";
  return cfg;
}

/// Destage stores and directory-gated fetches at the workload's rates. Each
/// block of requests runs its stores, then its fetches, one span each; a
/// fetch targets a recently stored object, as a directory-positive lookup
/// does.
void p2p_pass(const LayerInputs& in, const Slice& slice, Tracer& tracer) {
  webcache::obs::Registry registry;
  webcache::p2p::P2PClientCache p2p(p2p_config(in), in.object_ids, &registry);
  const double cost = in.latencies.server();
  std::deque<std::pair<ObjectNum, ClientNum>> recent;
  double store_credit = 0.0;
  double fetch_credit = 0.0;
  std::vector<std::pair<ObjectNum, ClientNum>> stores;
  std::vector<std::pair<ObjectNum, ClientNum>> fetches;
  for (std::size_t b = 0; b < slice.objects.size(); b += kBatch) {
    const std::size_t e = std::min(slice.objects.size(), b + kBatch);
    stores.clear();
    fetches.clear();
    for (std::size_t i = b; i < e; ++i) {
      const ClientNum client = slice.clients[i] % in.clients;
      bool stored = false;
      for (store_credit += in.p2p_stores_per_request; store_credit >= 1.0; store_credit -= 1.0) {
        stores.emplace_back(slice.objects[i], client);
        stored = true;
      }
      for (fetch_credit += in.p2p_fetches_per_request; fetch_credit >= 1.0; fetch_credit -= 1.0) {
        if (!recent.empty()) {
          fetches.emplace_back(recent.front().first, client);
          recent.pop_front();
        }
      }
      if (stored) {
        recent.emplace_back(slice.objects[i], client);
        if (recent.size() > 1024) recent.pop_front();
      }
    }
    {
      Scope scope(tracer, "p2p.store", stores.size());
      for (const auto& [object, client] : stores) (void)p2p.store(object, cost, client);
    }
    {
      Scope scope(tracer, "p2p.fetch", fetches.size());
      for (const auto& [object, client] : fetches) (void)p2p.fetch(object, client, true);
    }
  }
}

/// Fills a cluster's P2P cache from the slice and applies the cluster-0
/// churn events at their trace positions, one span per event.
void churn_pass(const LayerInputs& in, const Slice& slice, Tracer& tracer) {
  using webcache::fault::ChurnAction;
  webcache::obs::Registry registry;
  webcache::p2p::P2PClientCache p2p(p2p_config(in), in.object_ids, &registry);
  std::vector<webcache::fault::ChurnEvent> events;
  for (const auto& ev : in.churn) {
    if (ev.proxy == 0) events.push_back(ev);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  const double cost = in.latencies.server();
  std::size_t next = 0;
  for (std::size_t i = 0; i < slice.objects.size() && next < events.size(); ++i) {
    for (; next < events.size() && events[next].time <= slice.positions[i]; ++next) {
      const auto& ev = events[next];
      Scope scope(tracer, "p2p.churn");
      switch (ev.action) {
        case ChurnAction::kCrash: (void)p2p.fail_client(ev.client); break;
        case ChurnAction::kRejoin: (void)p2p.revive_client(ev.client); break;
        case ChurnAction::kJoin: (void)p2p.add_client(); break;
        case ChurnAction::kRepair: p2p.repair(); break;
      }
    }
    const ClientNum client = slice.clients[i] % in.clients;
    if (p2p.client_alive(client)) (void)p2p.store(slice.objects[i], cost, client);
  }
}

}  // namespace

std::shared_ptr<const workload::TraceStats> run_isolated_layers(const LayerInputs& in,
                                                                 Tracer& tracer) {
  using webcache::sim::Scheme;
  const auto runs = [&in](std::initializer_list<Scheme> schemes) {
    return std::any_of(schemes.begin(), schemes.end(), [&in](Scheme s) {
      return std::find(in.schemes.begin(), in.schemes.end(), s) != in.schemes.end();
    });
  };
  decode_pass(*in.source, tracer);
  const Slice slice = proxy_slice(*in.source, in.proxies);
  const double cost = in.latencies.server();
  const auto universe = in.source->distinct_objects();

  std::shared_ptr<const workload::TraceStats> stats;
  if (runs({Scheme::kFC, Scheme::kFC_EC})) {
    {
      Scope scope(tracer, "workload.analyze");
      stats = std::make_shared<const workload::TraceStats>(workload::analyze(*in.source));
    }
    cost_benefit_pass(in, *stats, tracer);
  }
  if (runs({Scheme::kNC, Scheme::kSC})) {
    auto lfu = cache::make_cache(cache::PolicyKind::kLfu, in.proxy_capacity);
    lfu->reserve_universe(universe);
    drive_cache(tracer, "cache.lfu_da.op", *lfu, slice.objects, cost);
  }
  if (runs({Scheme::kFC_EC})) {
    auto tracker = cache::make_cache(cache::PolicyKind::kLru, in.proxy_capacity);
    drive_cache(tracer, "cache.lru.op", *tracker, slice.objects, cost);
  }
  if (in.browser_capacity > 0) {
    std::vector<std::unique_ptr<cache::Cache>> browsers;
    for (ClientNum c = 0; c < in.clients; ++c) {
      browsers.push_back(cache::make_cache(cache::PolicyKind::kLru, in.browser_capacity));
    }
    for (std::size_t b = 0; b < slice.objects.size(); b += kBatch) {
      const std::size_t e = std::min(slice.objects.size(), b + kBatch);
      Scope scope(tracer, "cache.lru.op", 2 * (e - b));
      for (std::size_t i = b; i < e; ++i) {
        cache::Cache& browser = *browsers[slice.clients[i] % in.clients];
        if (browser.contains(slice.objects[i])) {
          browser.access(slice.objects[i], 0.0);
        } else {
          (void)browser.insert(slice.objects[i], 0.0);
        }
      }
    }
  }
  if (runs({Scheme::kNC_EC, Scheme::kSC_EC})) tiered_pass(in, slice, tracer);

  if (runs({Scheme::kHierGD, Scheme::kSquirrel})) {
    auto gd = cache::make_cache(cache::PolicyKind::kGreedyDual, in.proxy_capacity);
    gd->reserve_universe(universe);
    drive_cache(tracer, "cache.greedy_dual.op", *gd, slice.objects, cost);
    gd = cache::make_cache(cache::PolicyKind::kGreedyDual, in.client_capacity);
    drive_cache(tracer, "cache.greedy_dual.op", *gd, slice.objects, cost);
    gd.reset();
    if (runs({Scheme::kHierGD})) directory_pass(in, slice, tracer);
    pastry_pass(in, slice, tracer);
    p2p_pass(in, slice, tracer);
  }
  if (!in.churn.empty()) churn_pass(in, slice, tracer);
  return stats;
}

}  // namespace perfbench
