// Internal state of the intra-run sharded engine (SimConfig::sim_shards).
//
// One simulation is partitioned by CLUSTER: cluster c belongs to worker
// shard c mod S (S = min(sim_shards, num_proxies)), and request t belongs to
// cluster t mod P exactly as in the sequential engine. Each cluster owns a
// "lane": a private registry its outcomes and components count into, its
// churn/loss substreams and its digest change log. Cross-cluster
// interactions never touch another cluster's live state directly; they
// consult epoch-start cooperation digests and enqueue position-keyed
// RemoteOps that the owning shard applies in trace order at the epoch
// barrier. Everything here is therefore a pure function of (config, trace) —
// never of the shard count or thread scheduling.
//
// This header is internal to src/sim (simulator.cpp runs the steps,
// sharded_run.cpp drives the epochs); it is not part of the public surface.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/churn_engine.hpp"
#include "fault/loss_model.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace webcache::sim {

/// Digest refresh period used when SimConfig::shard_epoch is 0.
inline constexpr std::uint64_t kDefaultShardEpoch = 8192;

/// One request's touch of another cluster's state. kProxyAccess and
/// kTieredRefresh refresh the holder's copy; kPushFetch also carries the
/// requester's in-flight surcharges and receives the fetch's outcome for
/// finish_push.
struct Simulator::RemoteOp {
  enum class Kind : std::uint8_t { kProxyAccess, kTieredRefresh, kPushFetch };
  std::uint64_t pos = 0;     ///< trace position (globally unique -> total order)
  ObjectNum object = 0;
  std::uint32_t source = 0;  ///< requesting cluster
  std::uint32_t target = 0;  ///< cluster whose state the op touches
  Kind kind = Kind::kProxyAccess;
  ClientNum raw_client = 0;  ///< kPushFetch: the request's raw client id
  double waste = 0.0;        ///< kPushFetch: requester waste so far
  double loss_waste = 0.0;   ///< kPushFetch: requester loss penalties so far
  double hop_latency = 0.0;  ///< kPushFetch: requester hop charges so far
  bool hit = false;          ///< kPushFetch outcome (written by apply_remote)
  unsigned hops = 0;         ///< kPushFetch outcome (written by apply_remote)
};

struct Simulator::ShardedState {
  ShardedState(const SimConfig& config, const std::vector<fault::ChurnEvent>& schedule);

  struct DigestDelta {
    ObjectNum object = 0;
    CoopSet set = kPrimary;
    bool present = false;
  };

  /// Per-CLUSTER lane. Only the shard that owns the cluster writes it during
  /// a phase (phase 2a writes the TARGET cluster's lane, which the target's
  /// shard owns), so lanes need no synchronization beyond the epoch
  /// barriers; the alignment keeps neighbouring lanes off one cache line.
  struct alignas(64) Lane {
    explicit Lane(const net::LatencyModel& latencies) : out(registry, latencies) {}
    /// The cluster's outcomes and components count here; the run's end
    /// merges lanes into the canonical registry in cluster order.
    obs::Registry registry;
    Outcomes out;
    /// This cluster's slice of the globally sorted churn schedule.
    fault::ChurnEngine churn;
    /// Per-(seed, cluster) loss substream, so loss draws are a function of
    /// the cluster's own transfer sequence only.
    fault::LossModel loss;
    /// Digest changes this cluster produced this epoch; applied to the
    /// digests single-threaded at the epoch barrier.
    std::vector<DigestDelta> log;
  };

  unsigned shards = 1;  ///< effective worker count = min(sim_shards, num_proxies)
  std::uint64_t epoch_len = kDefaultShardEpoch;
  std::vector<std::unique_ptr<Lane>> lanes;   ///< one per cluster
  std::vector<std::vector<RemoteOp>> outbox;  ///< one per shard, position-ordered
};

}  // namespace webcache::sim
