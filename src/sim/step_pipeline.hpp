// StepPipeline: batched lookahead execution for the simulator hot loops.
//
// The sequential run loop and the sharded engine's phase-1 replay both chase
// dependent cache-missing loads one request at a time: DenseMap/FlatMap
// slots, policy object-index entries, directory stamps, residency/digest
// words. The TraceSource already hands the replay a whole chunk of upcoming
// requests, so the memory-level parallelism is sitting there unexploited.
//
// StepPipeline splits each replay window into blocks of `window` requests
// and drives every block in two phases:
//
//   address generation  decode the block's requests, resolve proxy/cluster
//                       routing (t mod P — a pure function of position) and
//                       issue advisory prefetches on every data-plane slot
//                       the request will probe. Strictly read-only.
//   execution           run the classic per-request step logic over the
//                       block, in trace order, unchanged.
//
// With `window` = K, up to K independent miss chains are in flight while
// the first request of the block executes — group prefetching — instead of
// one. Because the address-generation phase mutates nothing and prefetches
// are advisory, results are byte-identical for EVERY window value; window
// is a pure performance knob (SimConfig::pipeline_window, --pipeline-window,
// WEBCACHE_PIPELINE). window <= 1 degenerates to the classic sequential
// loop with no prefetch pass at all.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace webcache::sim {

/// Lookahead depth when neither SimConfig::pipeline_window nor
/// WEBCACHE_PIPELINE says otherwise. Deep enough to cover the latency of a
/// DRAM miss with a block of independent ones, shallow enough that a block's
/// prefetched lines survive in L1/L2 until their execution phase.
inline constexpr unsigned kDefaultPipelineWindow = 16;

/// Upper bound on the window: beyond this, early prefetches start evicting
/// each other before execution reaches them.
inline constexpr unsigned kMaxPipelineWindow = 1024;

/// Process-default pipeline window from WEBCACHE_PIPELINE: unset or "ON"
/// selects kDefaultPipelineWindow (the engine defaults ON); "OFF" (or "0"/
/// "1") disables lookahead; a number in [1, kMaxPipelineWindow] sets the
/// window. Parsed once, like the other WEBCACHE_* process knobs.
[[nodiscard]] unsigned default_pipeline_window();

/// Resolves a SimConfig::pipeline_window value: 0 defers to the process
/// default; anything else is clamped to [1, kMaxPipelineWindow].
[[nodiscard]] unsigned resolve_pipeline_window(unsigned configured);

class StepPipeline {
 public:
  explicit StepPipeline(unsigned window) : window_(window == 0 ? 1 : window) {}

  [[nodiscard]] unsigned window() const { return window_; }

  /// Drives the requests of `win` (trace positions base .. base+win.size())
  /// block by block: `prefetch(request, t)` over the whole block first, then
  /// `exec(request, t)` in trace order. At window 1 the prefetch pass is
  /// skipped entirely.
  template <typename PrefetchFn, typename ExecFn>
  void drive(std::span<const Request> win, std::uint64_t base,
             PrefetchFn&& prefetch, ExecFn&& exec) const {
    const std::size_t n = win.size();
    for (std::size_t i = 0; i < n;) {
      const std::size_t end = std::min(n, i + window_);
      if (window_ > 1) {
        for (std::size_t j = i; j < end; ++j) prefetch(win[j], base + j);
      }
      for (std::size_t j = i; j < end; ++j) exec(win[j], base + j);
      i = end;
    }
  }

  /// Sharded variant: only positions with `owns(t)` true belong to this
  /// shard's pipeline; foreign positions are skipped without decode. Blocks
  /// are formed from owned requests only, so a shard still keeps `window`
  /// independent miss chains in flight regardless of how its clusters
  /// interleave with the others'.
  template <typename OwnsFn, typename PrefetchFn, typename ExecFn>
  void drive_filtered(std::span<const Request> win, std::uint64_t base,
                      OwnsFn&& owns, PrefetchFn&& prefetch, ExecFn&& exec) {
    batch_.clear();
    const std::size_t n = win.size();
    for (std::size_t i = 0; i < n;) {
      batch_.clear();
      while (i < n && batch_.size() < window_) {
        if (owns(base + i)) batch_.push_back(static_cast<std::uint32_t>(i));
        ++i;
      }
      if (window_ > 1) {
        for (const std::uint32_t j : batch_) prefetch(win[j], base + j);
      }
      for (const std::uint32_t j : batch_) exec(win[j], base + j);
    }
  }

 private:
  unsigned window_;
  std::vector<std::uint32_t> batch_;  ///< drive_filtered scratch (reused)
};

}  // namespace webcache::sim
