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
//             remote cluster become RemoteOps in the shard's outbox;
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
// The per-request work in every phase is the Simulator's own step code, the
// same the sequential engine runs; this file holds only the epoch protocol.
//
// Every decision depends only on (config, trace) — the shard count S fixes
// the cluster->thread map but never the outcome, so exports are
// byte-identical for any sim_shards >= 1. The cooperative numbers differ in
// detail from the sequential engine (digest staleness bounded by one epoch,
// mirroring the periodic digest exchange of real cooperative caches); at
// shard_epoch = 1 without P2P loss they match it. The determinism contract
// is documented in README "Sharded runs".
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

#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace webcache::sim {

Simulator::ShardedState::ShardedState(const SimConfig& config,
                                      const std::vector<fault::ChurnEvent>& schedule)
    : shards(std::min(config.sim_shards, config.num_proxies)),
      epoch_len(config.shard_epoch > 0 ? config.shard_epoch : kDefaultShardEpoch),
      outbox(shards) {
  // Per-cluster slices of the globally sorted schedule (the stable filter
  // preserves same-cluster order) and per-(seed, cluster) loss substreams,
  // so each lane's draws depend only on its own event/transfer sequence.
  std::vector<std::vector<fault::ChurnEvent>> per_cluster(config.num_proxies);
  for (const auto& event : schedule) {
    if (event.proxy >= config.num_proxies) {
      throw std::invalid_argument("Simulator: failure event references unknown proxy");
    }
    per_cluster[event.proxy].push_back(event);
  }
  lanes.reserve(config.num_proxies);
  for (unsigned c = 0; c < config.num_proxies; ++c) {
    auto lane = std::make_unique<Lane>(config.latencies);
    lane->churn = fault::ChurnEngine(std::move(per_cluster[c]));
    lane->loss = fault::LossModel(
        config.p2p_loss_rate,
        SplitMix64(config.seed ^ 0x4c4f5353ULL ^ (0x9e3779b97f4a7c15ULL * (c + 1))).next());
    lanes.push_back(std::move(lane));
  }
}

struct ShardedRunEngine {
  using St = Simulator::ShardedState;
  using Op = Simulator::RemoteOp;

  Simulator& sim;
  St& st;
  const unsigned P;
  const unsigned S;

  explicit ShardedRunEngine(Simulator& simulator)
      : sim(simulator),
        st(*simulator.sharded_),
        P(simulator.config_.num_proxies),
        S(st.shards) {}

  /// Lazily advances a cluster's churn substream to `now`. Called before
  /// every touch of the cluster's state (own requests in phase 1, inbound
  /// ops in phase 2a), which makes lazy dispatch equivalent to the
  /// sequential engine's eager per-position dispatch: every state read
  /// happens at a touch. The cursor is monotone, so re-advancing to an
  /// earlier position is a no-op.
  void advance_churn(unsigned cluster, std::uint64_t now) const {
    st.lanes[cluster]->churn.advance(
        now, [this](const fault::ChurnEvent& e) { sim.apply_churn(e); });
  }

  void phase1(unsigned shard, std::uint64_t base, std::uint64_t end) {
    // This shard's slice of the epoch: the positions of its own clusters, in
    // trace order. The epoch is one window; flush_epoch releases it.
    const auto win = sim.source_->window(base, static_cast<std::size_t>(end - base));
    for (std::size_t i = 0; i < win.size(); ++i) {
      const std::uint64_t t = base + i;
      const auto cluster = static_cast<unsigned>(t % P);
      if (cluster % S != shard) continue;
      advance_churn(cluster, t);
      sim.serve(t, win[i], cluster);
    }
  }

  void phase2a(unsigned shard) {
    std::vector<Op*> inbound;
    for (auto& box : st.outbox) {
      for (auto& op : box) {
        if (op.target % S == shard) inbound.push_back(&op);
      }
    }
    // Trace positions are unique (at most one remote op per request), so
    // the position sort is a total order independent of which outbox an op
    // came from.
    std::sort(inbound.begin(), inbound.end(),
              [](const Op* a, const Op* b) { return a->pos < b->pos; });
    for (Op* op : inbound) {
      advance_churn(op->target, op->pos);
      sim.apply_remote(*op);
    }
  }

  void phase2b(unsigned shard) {
    for (const Op& op : st.outbox[shard]) {
      if (op.kind != Op::Kind::kPushFetch) continue;
      sim.finish_push(op);
      // The deferred request's browser fill lands at completion time.
      sim.browser_fill(op.source, op.raw_client, op.object);
    }
  }

  /// Epoch-end flush, single-threaded at the barrier: digest change logs
  /// apply in cluster-ascending order, outboxes clear, the consumed trace
  /// prefix is released.
  void flush_epoch(std::uint64_t epoch_end) noexcept {
    for (unsigned c = 0; c < P; ++c) {
      auto& log = st.lanes[c]->log;
      for (const auto& delta : log) {
        ClusterSets& digest = sim.coop_[delta.set];
        if (delta.present) {
          digest.set(delta.object, c);
        } else {
          digest.reset(delta.object, c);
        }
      }
      log.clear();
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

  // Lanes merge cluster-ascending, so the floating-point merge order is a
  // pure function of the configuration and exports are byte-identical for
  // any shard count.
  for (const auto& lane : st.lanes) registry_->merge(lane->registry);
  replayed_ = total;
  return metrics_view();
}

}  // namespace webcache::sim
