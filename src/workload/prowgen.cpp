#include "workload/prowgen.hpp"

#include <algorithm>
#include <cmath>
#include <list>
#include <stdexcept>
#include <unordered_map>
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

}  // namespace

ProWGen::ProWGen(ProWGenConfig config) : config_(config) {
  if (config_.distinct_objects == 0) {
    throw std::invalid_argument("ProWGen: distinct_objects must be >= 1");
  }
  if (config_.one_timer_fraction < 0.0 || config_.one_timer_fraction > 1.0) {
    throw std::invalid_argument("ProWGen: one_timer_fraction must be in [0, 1]");
  }
  if (config_.zipf_alpha < 0.0) {
    throw std::invalid_argument("ProWGen: zipf_alpha must be >= 0");
  }
  if (config_.lru_stack_fraction <= 0.0 || config_.lru_stack_fraction > 1.0) {
    throw std::invalid_argument("ProWGen: lru_stack_fraction must be in (0, 1]");
  }
  if (config_.temporal_amplifier < 1.0) {
    throw std::invalid_argument("ProWGen: temporal_amplifier must be >= 1");
  }
  if (config_.recency_bias < 0.0 || config_.recency_bias > 1.0) {
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

  FenwickTree stack_mass(universe);
  FenwickTree pool_mass(universe);
  std::vector<std::uint64_t> remaining = count;
  for (ObjectNum o = 0; o < universe; ++o) {
    pool_mass.set(o, static_cast<double>(remaining[o]));
  }

  std::list<ObjectNum> stack;  // front = most recently referenced
  std::unordered_map<ObjectNum, std::list<ObjectNum>::iterator> stack_pos;
  stack_pos.reserve(stack_capacity * 2);

  const auto demote_to_pool = [&](ObjectNum o) {
    const double w = static_cast<double>(remaining[o]);
    stack_mass.set(o, 0.0);
    pool_mass.set(o, w);
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

  for (std::uint64_t t = 0; t < cfg.total_requests; ++t) {
    const double ms = stack_mass.total();
    const double mp = pool_mass.total();
    const double boosted = cfg.temporal_amplifier * ms;
    const bool from_stack =
        ms > 0.0 && (mp <= 0.0 || stream_rng.next_double() * (boosted + mp) < boosted);

    // Scale the recency bias so temporal_amplifier = 1 degrades to the pure
    // popularity/mass model (no clustering beyond natural re-reference).
    const double effective_bias = cfg.recency_bias * (1.0 - 1.0 / cfg.temporal_amplifier);

    ObjectNum object;
    bool chosen = false;
    if (from_stack && !recent.empty() && stream_rng.next_double() < effective_bias) {
      const ObjectNum candidate = window_draw(stream_rng.next_double());
      // Only objects still in the LRU stack are eligible for a temporally
      // local re-reference — the stack size gates how much of the recent
      // window can cluster (the ProWGen semantics of the knob).
      if (remaining[candidate] > 0 && stack_pos.contains(candidate)) {
        object = candidate;
        chosen = true;
      }
    }
    if (!chosen) {
      if (from_stack) {
        object = static_cast<ObjectNum>(stack_mass.find(stream_rng.next_double() * ms));
      } else {
        object = static_cast<ObjectNum>(pool_mass.find(stream_rng.next_double() * mp));
      }
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
    --remaining[object];
    const double w = static_cast<double>(remaining[object]);
    if (const auto it = stack_pos.find(object); it != stack_pos.end()) {
      stack_mass.set(object, w);
      stack.splice(stack.begin(), stack, it->second);
    } else {
      pool_mass.set(object, 0.0);
      stack_mass.set(object, w);
      stack.push_front(object);
      stack_pos[object] = stack.begin();
      if (stack.size() > stack_capacity) {
        const ObjectNum evicted = stack.back();
        stack.pop_back();
        stack_pos.erase(evicted);
        demote_to_pool(evicted);
      }
    }
  }
}

}  // namespace webcache::workload
