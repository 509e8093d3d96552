// Span recorder for the benchmark's traced mode.
//
// Spans are opened only from the benchmark's own files, around calls into
// the simulator libraries. Each span holds its name, start and end, the span
// that was open when it started (its parent), the run id shared by one
// simulation's spans, and a call count: per-request calls (trace appends,
// cache operations, Pastry routes) are timed one span per batch, with the
// batch size as the count. Spans stay in memory and are written when the
// benchmark ends. A span's self time is its duration minus the time its
// child spans cover; spans nest on one thread, so children never overlap.
//
// With tracing off, Scope records nothing and costs one branch, so the
// untraced mode runs the same code path as the traced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint32_t run = 0;
  std::uint64_t calls = 1;
};

/// Per-name aggregate of closed spans.
struct SpanTotals {
  double duration_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t spans = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Run ids start at 1; a span opened with run 0 carries the current one.
  static constexpr std::uint32_t kCurrentRun = 0;

  /// Starts a new run id and returns it; spans opened from now on carry it
  /// unless they name another run.
  std::uint32_t begin_run() { return ++run_; }

  int open(std::string_view name, std::uint64_t calls, std::uint32_t run) {
    Span span;
    span.name = std::string(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.run = run == kCurrentRun ? run_ : run;
    span.calls = calls;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index, std::uint64_t calls) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    span.calls = calls;
    stack_.pop_back();
  }

  [[nodiscard]] std::map<std::string, SpanTotals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      SpanTotals& t = out[span.name];
      const std::int64_t duration = span.end_ns - span.start_ns;
      t.duration_s += static_cast<double>(duration) * 1e-9;
      t.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
      t.calls += span.calls;
      ++t.spans;
    }
    return out;
  }

  /// One JSON object per line: name, start/end (ns since the tracer was
  /// created), parent index, run id, call count.
  void write_jsonl(std::ostream& out) const {
    for (const Span& span : spans_) {
      out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << ",\"run\":" << span.run << ",\"calls\":" << span.calls << "}\n";
    }
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t run_ = 0;
};

/// RAII span: opened at construction, closed at destruction. It carries
/// `run` when given (a simulation's replay, opened after other runs began),
/// else the tracer's current run.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::uint64_t calls = 1,
        std::uint32_t run = Tracer::kCurrentRun)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, calls, run) : -1),
        calls_(calls) {}
  ~Scope() {
    if (index_ >= 0) tracer_.close(index_, calls_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_calls(std::uint64_t calls) { calls_ = calls; }

 private:
  Tracer& tracer_;
  int index_;
  std::uint64_t calls_;
};

}  // namespace perfbench
