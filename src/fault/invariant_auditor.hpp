// Cross-layer invariant auditor: walks a live Simulator at churn checkpoints
// and asserts the consistency properties no single layer can check alone —
// per-cache byte accounting vs. resident objects, eviction-order soundness,
// directory ↔ P2P residency (no false negatives for Bloom; exact equality
// without churn, a loss-bounded ghost count with it), diversion-pointer
// symmetry, residency-bitmask agreement with the actual caches, Pastry
// leaf-set/routing-table well-formedness, and the outcome accounting that
// backs the paper's "degrades but never corrupts" safety claim.
//
// The auditor is read-only: it uses only counter-free probes
// (audit_contains, contents(), peek_victim()), so running it changes no
// exported metric — audited and unaudited runs of the same config produce
// byte-identical JSON. It costs nothing unless a checkpoint hook is set.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace webcache::sim {
class Simulator;
}

namespace webcache::fault {

struct AuditReport {
  std::uint64_t checks = 0;  ///< individual assertions evaluated
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Audits the simulator's full cross-layer state; `now` is the number of
/// requests completed (what a checkpoint hook receives).
[[nodiscard]] AuditReport audit(const sim::Simulator& sim, std::uint64_t now);

/// A SimConfig::checkpoint_hook that runs audit() and throws
/// std::logic_error listing every violation when the report fails.
[[nodiscard]] std::function<void(const sim::Simulator&, std::uint64_t)> make_audit_hook();

}  // namespace webcache::fault
