#include "workload/prowgen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/fenwick.hpp"

namespace webcache::workload {

namespace {

/// Length of the recent-reference window, in requests. Deliberately
/// independent of the LRU stack size: as in ProWGen's stack-depth model,
/// temporally-local re-references land near the top of the stack no matter
/// how large the stack is — the stack size only controls how much of the
/// reference mass flows through the stack at all. This is what makes a
/// larger stack help a *single* cache (short re-reference distances on more
/// of the stream) rather than hurt it.
constexpr std::size_t kRecencyWindow = 256;

/// Objects per block of the stack and pool mass sums; a draw scans one
/// block. Measured (Xeon, 2 GHz): 16 generates the UCB-like trace at
/// scale 0.25 as fast as 32 and the paper workload 25 % faster; 64
/// generates the paper workload slower than per-object sums did.
constexpr std::size_t kBlockObjects = 16;

}  // namespace

ProWGen::ProWGen(ProWGenConfig config) : config_(config) {
  // Each range check is negated so that NaN fails it.
  if (config_.distinct_objects == 0) {
    throw std::invalid_argument("ProWGen: distinct_objects must be >= 1");
  }
  if (!(config_.one_timer_fraction >= 0.0 && config_.one_timer_fraction <= 1.0)) {
    throw std::invalid_argument("ProWGen: one_timer_fraction must be in [0, 1]");
  }
  if (!(config_.zipf_alpha >= 0.0 && std::isfinite(config_.zipf_alpha))) {
    throw std::invalid_argument("ProWGen: zipf_alpha must be finite and >= 0");
  }
  if (!(config_.lru_stack_fraction > 0.0 && config_.lru_stack_fraction <= 1.0)) {
    throw std::invalid_argument("ProWGen: lru_stack_fraction must be in (0, 1]");
  }
  if (!(config_.temporal_amplifier >= 1.0 && std::isfinite(config_.temporal_amplifier))) {
    throw std::invalid_argument("ProWGen: temporal_amplifier must be finite and >= 1");
  }
  if (!(config_.recency_bias >= 0.0 && config_.recency_bias <= 1.0)) {
    throw std::invalid_argument("ProWGen: recency_bias must be in [0, 1]");
  }
  if (config_.clients == 0) {
    throw std::invalid_argument("ProWGen: clients must be >= 1");
  }

  const auto one_timers = static_cast<std::uint64_t>(
      std::llround(config_.one_timer_fraction * static_cast<double>(config_.distinct_objects)));
  const std::uint64_t multi = config_.distinct_objects - one_timers;
  const std::uint64_t needed = one_timers + 2 * multi;  // every multi object needs >= 2
  if (config_.total_requests < needed) {
    throw std::invalid_argument(
        "ProWGen: total_requests too small for the object universe (need at least " +
        std::to_string(needed) + ")");
  }
  // With no multi-referenced object, nothing can absorb the requests beyond
  // one per object.
  if (multi == 0 && config_.total_requests != one_timers) {
    throw std::invalid_argument(
        "ProWGen: total_requests must equal distinct_objects (" + std::to_string(one_timers) +
        ") when every object is a one-timer");
  }
}

Trace ProWGen::generate() const {
  Trace trace;
  trace.universe = config_.distinct_objects;
  trace.requests.reserve(config_.total_requests);
  generate([&trace](const Request& r) { trace.requests.push_back(r); });
  return trace;
}

void ProWGen::generate(const RequestSink& sink) const {
  const auto& cfg = config_;
  const ObjectNum universe = cfg.distinct_objects;
  const auto one_timers = static_cast<ObjectNum>(
      std::llround(cfg.one_timer_fraction * static_cast<double>(universe)));
  const ObjectNum multi = universe - one_timers;

  Rng rng(cfg.seed);
  Rng client_rng = rng.fork(1);
  // Stream 2 drew object sizes when the generator had a size model. A fork
  // advances the parent generator, so it is still taken: without it the
  // stream fork below would be reseeded and every generated trace change.
  (void)rng.fork(2);
  Rng stream_rng = rng.fork(3);

  // --- 1. Per-object total reference counts -------------------------------
  // Objects [0, multi) are the multi-referenced population in popularity
  // order (object 0 most popular); objects [multi, universe) are one-timers.
  std::vector<std::uint64_t> count(universe, 0);
  for (ObjectNum o = multi; o < universe; ++o) count[o] = 1;

  const std::uint64_t budget = cfg.total_requests - one_timers;
  if (multi > 0) {
    // Zipf shares with a floor of 2 references, reconciled to the budget.
    std::vector<double> share(multi);
    double norm = 0.0;
    for (ObjectNum i = 0; i < multi; ++i) {
      share[i] = 1.0 / std::pow(static_cast<double>(i + 1), cfg.zipf_alpha);
      norm += share[i];
    }
    std::uint64_t assigned = 0;
    for (ObjectNum i = 0; i < multi; ++i) {
      const auto c = std::max<std::uint64_t>(
          2, static_cast<std::uint64_t>(share[i] / norm * static_cast<double>(budget)));
      count[i] = c;
      assigned += c;
    }
    // Reconcile to the exact budget: surplus is trimmed from the most
    // popular objects (never below 2); deficit is added to the head.
    if (assigned > budget) {
      std::uint64_t surplus = assigned - budget;
      for (ObjectNum i = 0; i < multi && surplus > 0; ++i) {
        const std::uint64_t cut = std::min(surplus, count[i] - 2);
        count[i] -= cut;
        surplus -= cut;
      }
      if (surplus > 0) {
        throw std::logic_error("ProWGen: cannot reconcile reference counts (config too tight)");
      }
    } else {
      count[0] += budget - assigned;
    }
  }

  // --- 2. Stream generation via the finite LRU-stack model -----------------
  const auto stack_capacity = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(cfg.lru_stack_fraction * static_cast<double>(std::max<ObjectNum>(multi, 1)))));

  // An object's remaining count is its stack weight while it sits in the
  // LRU stack and its pool weight otherwise. The two masses are summed per
  // block of kBlockObjects consecutive objects: a draw descends a block
  // tree, then scans one block. A draw u in [0, 1) lands on the first
  // object whose cumulative mass exceeds u * mass; every cumulative mass is
  // an integer, so that is the first to exceed the integer floor(u * mass).
  std::vector<std::uint64_t>& remaining = count;
  std::vector<bool> in_stack(universe, false);
  const std::size_t blocks = (universe + kBlockObjects - 1) / kBlockObjects;
  FenwickTree stack_mass(blocks);
  FenwickTree pool_mass(blocks);
  for (ObjectNum o = 0; o < universe; ++o) {
    pool_mass.add(o / kBlockObjects, static_cast<std::int64_t>(remaining[o]));
  }
  const auto draw = [&](bool from_stack, double u) {
    const FenwickTree& mass = from_stack ? stack_mass : pool_mass;
    const auto [block, offset] =
        mass.find(static_cast<std::uint64_t>(u * static_cast<double>(mass.total())));
    std::uint64_t left = offset;
    for (auto o = static_cast<ObjectNum>(block * kBlockObjects);; ++o) {
      const std::uint64_t w = in_stack[o] == from_stack ? remaining[o] : 0;
      if (w > left) return o;
      left -= w;
    }
  };

  // The stack, intrusive over object ids: head = most recently referenced.
  constexpr ObjectNum kNil = std::numeric_limits<ObjectNum>::max();
  std::vector<ObjectNum> prev(universe, kNil);
  std::vector<ObjectNum> next(universe, kNil);
  ObjectNum head = kNil;
  ObjectNum tail = kNil;
  std::size_t stack_size = 0;
  const auto unlink = [&](ObjectNum o) {
    (prev[o] == kNil ? head : next[prev[o]]) = next[o];
    (next[o] == kNil ? tail : prev[next[o]]) = prev[o];
  };
  const auto push_front = [&](ObjectNum o) {
    prev[o] = kNil;
    next[o] = head;
    (head == kNil ? tail : prev[head]) = o;
    head = o;
  };

  // Recent-reference window: a circular buffer of the last W requests,
  // newest-first addressable. Recency-biased stack draws pick a window
  // depth k with P(k) ~ 1/(k+1) — the skewed stack-depth distribution
  // observed in real reference streams — so re-references concentrate on
  // the most recent handful of requests and compound into bursts. That is
  // the temporal clustering a mass-weighted draw cannot produce, and it is
  // what lets even a frequency-driven cache profit from locality.
  std::vector<ObjectNum> recent;
  recent.reserve(kRecencyWindow);
  std::size_t recent_next = 0;  // slot that will be overwritten next

  const auto window_draw = [&](double u) -> ObjectNum {
    // Inverse CDF of P(k) ~ 1/(k+1) over k in [0, size): k = (size+1)^u - 1.
    const double size = static_cast<double>(recent.size());
    auto depth = static_cast<std::size_t>(std::pow(size + 1.0, u) - 1.0);
    if (depth >= recent.size()) depth = recent.size() - 1;
    // Depth 0 = newest. Translate into the circular buffer.
    const std::size_t newest =
        (recent_next + recent.size() - 1) % recent.size();
    return recent[(newest + recent.size() - depth) % recent.size()];
  };

  // Scale the recency bias so temporal_amplifier = 1 degrades to the pure
  // popularity/mass model (no clustering beyond natural re-reference).
  const double effective_bias = cfg.recency_bias * (1.0 - 1.0 / cfg.temporal_amplifier);

  for (std::uint64_t t = 0; t < cfg.total_requests; ++t) {
    const auto ms = static_cast<double>(stack_mass.total());
    const auto mp = static_cast<double>(pool_mass.total());
    const double boosted = cfg.temporal_amplifier * ms;
    const bool from_stack =
        ms > 0.0 && (mp <= 0.0 || stream_rng.next_double() * (boosted + mp) < boosted);

    ObjectNum object;
    bool chosen = false;
    if (from_stack && !recent.empty() && stream_rng.next_double() < effective_bias) {
      const ObjectNum candidate = window_draw(stream_rng.next_double());
      // Only objects still in the LRU stack are eligible for a temporally
      // local re-reference — the stack size gates how much of the recent
      // window can cluster (the ProWGen semantics of the knob).
      if (remaining[candidate] > 0 && in_stack[candidate]) {
        object = candidate;
        chosen = true;
      }
    }
    if (!chosen) {
      object = draw(from_stack, stream_rng.next_double());
    }

    if (recent.size() < kRecencyWindow) {
      recent.push_back(object);
    } else {
      recent[recent_next] = object;
      recent_next = (recent_next + 1) % kRecencyWindow;
    }

    sink(Request{
        t,
        static_cast<ClientNum>(client_rng.next_below(cfg.clients)),
        object,
        1,
    });

    // Consume one reference and refresh the object's recency.
    const std::size_t block = object / kBlockObjects;
    --remaining[object];
    if (in_stack[object]) {
      stack_mass.add(block, -1);
      unlink(object);
    } else {
      pool_mass.add(block, -static_cast<std::int64_t>(remaining[object]) - 1);
      stack_mass.add(block, static_cast<std::int64_t>(remaining[object]));
      in_stack[object] = true;
      if (++stack_size > stack_capacity) {
        const ObjectNum evicted = tail;
        unlink(evicted);
        --stack_size;
        in_stack[evicted] = false;
        const auto w = static_cast<std::int64_t>(remaining[evicted]);
        stack_mass.add(evicted / kBlockObjects, -w);
        pool_mass.add(evicted / kBlockObjects, w);
      }
    }
    push_front(object);
  }
}

}  // namespace webcache::workload
