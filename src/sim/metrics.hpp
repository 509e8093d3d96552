// Simulation metrics: where requests were served from, the latency they
// observed, protocol message counts, and the paper's headline metric —
// latency gain relative to NC.
//
// Since the observability refactor this struct is a *view*: the simulator
// keeps its bookkeeping in obs::Registry instruments ("sim.*" counters and
// gauges, "net.*" + "clusterN.net.*" message counters) and materializes a
// Metrics from them (Simulator::metrics_view). The struct remains the
// stable value type the sweeps, benches and tests consume.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "net/message_stats.hpp"

namespace webcache::sim {

struct Metrics {
  std::uint64_t requests = 0;
  std::uint64_t hits_browser = 0;
  std::uint64_t hits_local_proxy = 0;
  std::uint64_t hits_local_p2p = 0;
  std::uint64_t hits_remote_proxy = 0;
  std::uint64_t hits_remote_p2p = 0;
  std::uint64_t server_fetches = 0;

  double total_latency = 0.0;
  /// Latency wasted on directory false positives (Bloom directories only):
  /// P2P lookups for objects that were not there.
  double wasted_p2p_latency = 0.0;
  /// Latency charged for measured Pastry hops (only when the simulation
  /// runs with p2p_hop_latency > 0 instead of the constant-Tp2p model).
  double p2p_hop_latency_total = 0.0;

  net::MessageStats messages;
  /// Pastry hops per P2P operation (Hier-GD only).
  RunningStat p2p_hops;

  [[nodiscard]] double mean_latency() const {
    return requests == 0 ? 0.0 : total_latency / static_cast<double>(requests);
  }
  [[nodiscard]] std::uint64_t total_hits() const {
    return hits_browser + hits_local_proxy + hits_local_p2p + hits_remote_proxy +
           hits_remote_p2p;
  }
  [[nodiscard]] double hit_ratio() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(total_hits()) / static_cast<double>(requests);
  }

  /// Multi-line human-readable summary (examples use it).
  [[nodiscard]] std::string summary() const;
};

/// The paper's metric: 1 - L_x / L_NC, in [ -inf, 1 ), usually reported as %.
[[nodiscard]] double latency_gain(const Metrics& baseline_nc, const Metrics& scheme);

}  // namespace webcache::sim
