// TraceSource: the streaming request-stream abstraction the simulator, the
// sweep driver and the benches replay from. A source describes an ordered
// request stream over a dense object universe without prescribing where the
// records live: the in-memory Trace is a source whose windows are spans
// over its request vector, while the wctrace/1 mmap reader (wctrace.hpp)
// serves sequential windows straight out of a file mapping so traces far
// larger than RAM replay in bounded memory.
//
// The contract is positional and stateless: `window(pos, max_len)` returns a
// zero-copy span of consecutive records starting at `pos`, clamped to the
// stream length, and is safe to call concurrently (run_sweep replays one
// shared source from many worker threads). `discard_consumed(pos)` is a
// best-effort hint that records before `pos` are no longer needed by the
// caller; the mmap source translates it into page release so a sequential
// replay's resident set stays bounded by the replay window
// (default_replay_chunk), not the trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace webcache::workload {

/// An ordered, positionally addressable request stream (see file comment).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Total number of requests in the stream.
  [[nodiscard]] virtual std::uint64_t size() const = 0;

  /// Object ids in the stream are in [0, distinct_objects()).
  [[nodiscard]] virtual ObjectNum distinct_objects() const = 0;

  /// Zero-copy view of records [pos, pos + max_len), clamped to the stream
  /// length (empty once pos >= size()). The span stays valid for the
  /// source's lifetime, though a later discard_consumed() may make
  /// re-reading it cost page faults. Thread-safe.
  [[nodiscard]] virtual std::span<const Request> window(std::uint64_t pos,
                                                        std::size_t max_len) const = 0;

  /// Best-effort hint that this reader is done with records before `pos`.
  /// Sequential replays call it once per consumed window; sources backed by
  /// RAM ignore it. Thread-safe; never affects correctness.
  virtual void discard_consumed(std::uint64_t pos) const { (void)pos; }

  [[nodiscard]] bool empty() const { return size() == 0; }

 protected:
  TraceSource() = default;
  TraceSource(const TraceSource&) = default;
  TraceSource& operator=(const TraceSource&) = default;
  TraceSource(TraceSource&&) = default;
  TraceSource& operator=(TraceSource&&) = default;
};

/// An ordered request stream held in memory — what the generators and text
/// readers produce, and itself a TraceSource whose windows are spans over
/// `requests`. A Trace passed where a TraceSource is expected is borrowed,
/// so it must outlive the consumer (e.g. a Simulator).
struct Trace final : TraceSource {
  std::vector<Request> requests;
  ObjectNum universe = 0;  ///< object ids are in [0, universe)

  [[nodiscard]] std::uint64_t size() const override { return requests.size(); }

  [[nodiscard]] ObjectNum distinct_objects() const override { return universe; }

  [[nodiscard]] std::span<const Request> window(std::uint64_t pos,
                                                std::size_t max_len) const override {
    if (pos >= requests.size()) return {};
    return std::span<const Request>(requests).subspan(
        static_cast<std::size_t>(pos), std::min<std::size_t>(max_len, requests.size() - pos));
  }
};

/// Wraps a trace into a shared owning source (the benches' default path).
[[nodiscard]] inline std::shared_ptr<const TraceSource> make_source(Trace&& trace) {
  return std::make_shared<const Trace>(std::move(trace));
}

/// Copies a full stream back into a materialized Trace (tools/tests; the
/// whole point of the streaming pipeline is that hot paths never need this).
[[nodiscard]] Trace materialize(const TraceSource& source);

/// Replay window, in requests, of Simulator::run and of every whole-stream
/// scan: 65536 requests (1.5 MiB of records) between the page-release hints
/// a sequential pass over an mmap source sends.
[[nodiscard]] constexpr std::size_t default_replay_chunk() { return 65536; }

/// One sequential pass over the whole stream: calls `fn` with each
/// default_replay_chunk() window in order and releases it afterwards, so a
/// scan of an mmap source keeps only one window resident.
template <typename Fn>
void for_each_window(const TraceSource& source, Fn&& fn) {
  for (std::uint64_t pos = 0; pos < source.size();) {
    const auto win = source.window(pos, default_replay_chunk());
    if (win.empty()) break;  // defensive: a well-formed source never starves
    fn(win);
    pos += win.size();
    source.discard_consumed(pos);
  }
}

}  // namespace webcache::workload
