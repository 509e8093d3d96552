// Corporate-network scenario: the deployment the paper's introduction
// motivates. Five branch offices, each with its own proxy and 400 employee
// workstations whose browser caches are federated into a P2P client cache.
// The example sizes everything from the observed workload, runs the
// practical scheme (Hier-GD) against the no-cooperation status quo, and
// reports what an operator would want to know: where requests were served,
// what the protocol overhead was, and what the WAN saw.
//
//   $ ./corporate_network [requests]
//
// A malformed count, or one the workload cannot satisfy, exits 2.
#include <iomanip>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "core/experiment.hpp"
#include "workload/prowgen.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace webcache;

  constexpr unsigned kOffices = 5;
  constexpr ClientNum kWorkstations = 400;

  workload::ProWGenConfig wl;
  wl.total_requests = 400'000;
  wl.distinct_objects = 8'000;
  wl.clients = kWorkstations;
  wl.seed = 5;
  workload::Trace trace;
  try {
    if (argc > 1) {
      wl.total_requests =
          core::parse_integer("requests", argv[1], std::numeric_limits<std::uint64_t>::max());
    }
    trace = workload::ProWGen(wl).generate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  const auto infinite = core::cluster_infinite_cache_size(trace, kOffices);
  std::cout << "corporate network: " << kOffices << " offices x " << kWorkstations
            << " workstations\n"
            << "workload: " << trace.size() << " requests, per-office working set "
            << infinite << " objects\n\n";

  // Modest proxy boxes: 25% of the working set. Every workstation donates
  // browser-cache space worth 0.1% of the working set.
  sim::SimConfig cfg;
  cfg.num_proxies = kOffices;
  cfg.clients_per_cluster = kWorkstations;
  cfg.proxy_capacity = std::max<std::size_t>(1, infinite / 4);
  cfg.client_cache_capacity = std::max<std::size_t>(1, infinite / 1000);

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "proxy cache: " << cfg.proxy_capacity << " objects; federated client cache: "
            << static_cast<std::size_t>(kWorkstations) * cfg.client_cache_capacity
            << " objects per office\n\n";

  cfg.scheme = sim::Scheme::kHierGD;
  const auto run = core::run_single(trace, cfg);
  const auto& m = run.metrics;
  const auto& nc = run.baseline;

  std::cout << "=== status quo (isolated office proxies, NC) ===\n"
            << nc.summary() << "\n";
  std::cout << "=== Hier-GD (cooperating proxies + federated browser caches) ===\n"
            << m.summary() << "\n";

  std::cout << "latency gain over status quo: " << run.gain_percent << "%\n\n";

  const auto wan_before = nc.server_fetches;
  const auto wan_after = m.server_fetches;
  std::cout << "WAN requests to origin servers: " << wan_before << " -> " << wan_after << " ("
            << 100.0 * (1.0 - static_cast<double>(wan_after) / static_cast<double>(wan_before))
            << "% fewer)\n\n";

  std::cout << "protocol overhead (whole run):\n"
            << "  destaged objects (piggybacked):  " << m.messages.destage_piggybacked << "\n"
            << "  Pastry forwarding messages:      " << m.messages.pastry_forward_messages
            << "\n"
            << "  object diversions:               " << m.messages.diversions << "\n"
            << "  push transfers through firewall: " << m.messages.push_transfers << "\n"
            << "  mean Pastry hops per operation:  " << m.p2p_hops.mean() << "\n";
  return 0;
}
