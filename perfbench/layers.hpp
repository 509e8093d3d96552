// Isolated layer replays for the traced mode: each drives one layer's public
// API with the workload's own object stream, at the workload's capacities,
// with the op mix matched to the op ratios the workload's registries
// counted. Timings are recorded as spans (one per batch, with the batch's
// call count) under these names:
//
//   workload.decode   TraceSource::window/discard_consumed, one span per window
//   workload.analyze  workload::analyze                       (FC, FC-EC)
//   cache.lfu_da.op   contains + access|insert                (NC, SC)
//   cache.cost_benefit.op  the same, + consume                (FC, FC-EC)
//   cache.lru.op      FC-EC's tier tracker; browser caches when on
//   sim.tiered.op     TieredCache locate + access|admit       (NC-EC, SC-EC)
//   cache.greedy_dual.op, directory.op (ExactDirectory may_contain/add/remove),
//   pastry.build (Overlay::add_node x cluster size, per cluster),
//   pastry.route (Overlay::route(slot, key)),
//   p2p.store, p2p.fetch      P2PClientCache store / fetch    (Hier-GD, Squirrel)
//   p2p.churn         fail/revive/add/repair per churn event  (when churn is on)
//
// Only the layers the workload's schemes use are replayed; the others get
// no span.
#pragma once

#include <memory>
#include <vector>

#include "common/uint128.hpp"
#include "fault/churn_schedule.hpp"
#include "net/latency_model.hpp"
#include "sim/scheme.hpp"
#include "spans.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_stats.hpp"

namespace perfbench {

struct LayerInputs {
  const webcache::workload::TraceSource* source = nullptr;
  /// The schemes the workload runs.
  std::vector<webcache::sim::Scheme> schemes;
  unsigned proxies = 2;
  webcache::ClientNum clients = 100;
  std::size_t proxy_capacity = 1;
  std::size_t client_capacity = 1;
  /// Private browser cache per client; 0 = the workload has none.
  std::size_t browser_capacity = 0;
  std::shared_ptr<const std::vector<webcache::Uint128>> object_ids;
  webcache::net::LatencyModel latencies = webcache::net::LatencyModel::from_ratios();
  /// Op ratios from the workload's Hier-GD registries.
  double dir_adds_per_lookup = 0.0;
  double dir_removes_per_lookup = 0.0;
  double p2p_stores_per_request = 0.0;
  double p2p_fetches_per_request = 0.0;
  /// Churn plan whose cluster-0 events the churn replay applies; empty =
  /// the workload has no churn.
  std::vector<webcache::fault::ChurnEvent> churn;
};

/// Runs the isolated replays of the workload's layers; returns the trace
/// statistics the analyze replay computed (the cost-benefit frequency table),
/// or null when the workload runs no cost-benefit scheme.
std::shared_ptr<const webcache::workload::TraceStats> run_isolated_layers(const LayerInputs& in,
                                                                           Tracer& tracer);

}  // namespace perfbench
