// Outcome check for every simulation the benchmark runs: invariants of its
// "webcache-metrics/1" export that hold for any seed, plus a digest of the
// export that is compared against the one recorded with the benchmark.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// Violations of the export invariants (empty = consistent):
///  - every request is counted in exactly one outcome counter, and the
///    request count equals the trace length;
///  - per-cluster counters sum to the simulator totals;
///  - the policy counters cross-foot.
[[nodiscard]] std::vector<std::string> check_invariants(const webcache::obs::Registry& registry,
                                                        const webcache::sim::SimConfig& config,
                                                        std::uint64_t expected_requests);

/// FNV-1a (64-bit) over the registry's webcache-metrics/1 JSON body.
[[nodiscard]] std::uint64_t export_digest(const webcache::obs::Registry& registry);

[[nodiscard]] std::string hex64(std::uint64_t value);

/// Recorded export digests: a text file with one simulation per line,
/// "<workload> <seed> <scale> <label> <hex digest>".
class DigestBook {
 public:
  /// A missing file reads as an empty book.
  static DigestBook load(const std::string& path);

  [[nodiscard]] std::optional<std::string> find(const std::string& workload, std::uint64_t seed,
                                                const std::string& scale,
                                                const std::string& label) const;

  /// Drops every entry of (workload, seed, scale) and adds `entries`
  /// (label, hex digest) in their place.
  void replace(const std::string& workload, std::uint64_t seed, const std::string& scale,
               const std::vector<std::pair<std::string, std::string>>& entries);

  void save(const std::string& path) const;

 private:
  struct Entry {
    std::string workload;
    std::uint64_t seed = 0;
    std::string scale;
    std::string label;
    std::string digest;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
