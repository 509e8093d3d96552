// Simulator::audit(): the cross-layer invariant checks. They use only
// counter-free probes (audit_contains, contents(), peek_victim()), so an
// audit changes no exported metric.
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "cache/greedy_dual.hpp"
#include "sim/simulator.hpp"

namespace webcache::sim {

namespace {

/// Collects violations with a running check count; every assertion funnels
/// through expect() so the report's `checks` reflects real coverage.
struct Checker {
  AuditReport report;

  void expect(bool condition, const std::string& what) {
    ++report.checks;
    if (!condition) report.violations.push_back(what);
  }

  /// Structural soundness of one fixed-capacity cache: the size it reports,
  /// the contents it enumerates, membership answers, and its eviction choice
  /// must all agree. For greedy-dual, the victim must carry the minimum
  /// credit (heap-order soundness).
  void check_cache(const std::string& label, const cache::Cache& c) {
    const auto contents = c.contents();
    expect(contents.size() == c.size(), label + ": contents()/size() disagree");
    expect(c.size() <= c.capacity(), label + ": over capacity");
    std::unordered_set<ObjectNum> seen;
    for (const auto object : contents) {
      expect(seen.insert(object).second,
             label + ": duplicate object " + std::to_string(object));
      expect(c.contains(object),
             label + ": contents() lists object " + std::to_string(object) +
                 " but contains() denies it");
    }
    const auto victim = c.peek_victim();
    if (c.size() > 0) {
      expect(victim.has_value(), label + ": non-empty cache offers no victim");
    }
    if (victim) {
      expect(seen.contains(*victim), label + ": victim not among contents");
      if (const auto* gd = dynamic_cast<const cache::GreedyDualCache*>(&c)) {
        const double vc = gd->credit(*victim);
        for (const auto object : contents) {
          expect(vc <= gd->credit(object) + 1e-9,
                 label + ": victim credit above object " + std::to_string(object) +
                     " (eviction order unsound)");
        }
      }
    }
  }

  /// Pastry well-formedness: leaf sets and routing tables must be
  /// structurally valid at every checkpoint — even mid-churn, when *stale*
  /// (dead) references are legal, malformed ones never are.
  void check_overlay(const std::string& label, const pastry::Overlay& overlay) {
    for (const auto& id : overlay.nodes()) {
      const auto& leaves = overlay.leaf_set(id);
      expect(leaves.owner() == id, label + ": leaf set owner mismatch");
      expect(leaves.clockwise().size() <= leaves.capacity() / 2,
             label + ": clockwise leaf side overfull");
      expect(leaves.counter_clockwise().size() <= leaves.capacity() / 2,
             label + ": counter-clockwise leaf side overfull");
      std::unordered_set<pastry::NodeId, Uint128Hash> seen;
      for (const auto& member : leaves.members()) {
        expect(member != id, label + ": leaf set contains its owner");
        expect(seen.insert(member).second, label + ": duplicate leaf-set member");
      }
      const auto& table = overlay.routing_table(id);
      const auto populated = table.populated();
      expect(populated.size() == table.populated_count(),
             label + ": populated()/populated_count() disagree");
      for (const auto& entry : populated) {
        expect(entry != id, label + ": routing table contains its owner");
        const auto slot = table.slot_of(entry);
        expect(slot.has_value(), label + ": populated entry without a canonical slot");
        if (slot) {
          const auto at = table.entry(slot->first, slot->second);
          expect(at == std::optional<pastry::NodeId>(entry),
                 label + ": routing entry not stored at its canonical slot");
        }
      }
    }
  }

  /// Request accounting: every request was served exactly once, from exactly
  /// one place — the ledger behind "failures cost latency, never bytes".
  void check_accounting(const Metrics& m, std::uint64_t now) {
    expect(m.requests == now, "accounting: requests processed (" +
                                  std::to_string(m.requests) +
                                  ") != checkpoint position (" + std::to_string(now) + ")");
    const std::uint64_t outcomes = m.hits_browser + m.hits_local_proxy +
                                   m.hits_local_p2p + m.hits_remote_proxy +
                                   m.hits_remote_p2p + m.server_fetches;
    expect(outcomes == m.requests, "accounting: outcome counters sum to " +
                                       std::to_string(outcomes) + " for " +
                                       std::to_string(m.requests) + " requests");
    expect(m.messages.p2p_retries == m.messages.p2p_messages_lost,
           "accounting: every lost P2P message must be retried exactly once");
  }
};

}  // namespace

AuditReport Simulator::audit() const {
  Checker check;
  const ObjectNum universe = source_->distinct_objects();
  const unsigned proxies = config_.num_proxies;

  check.check_accounting(metrics_view(), replayed_);

  // The cooperation index must mirror the actual caches exactly; a drifted
  // set silently reroutes cooperative lookups.
  if (proxies_cooperate(config_.scheme)) {
    ClusterSets primary(proxies, universe);
    ClusterSets secondary(proxies, universe);
    const auto mark = [&](ClusterSets& sets, const std::vector<ObjectNum>& objects, unsigned p) {
      for (const auto object : objects) {
        check.expect(object < universe, "residency: proxy " + std::to_string(p) +
                                            " caches object " + std::to_string(object) +
                                            " outside the trace universe");
        if (object < universe) sets.set(object, p);
      }
    };
    for (unsigned p = 0; p < proxies; ++p) {
      const Proxy& proxy = proxies_[p];
      switch (config_.scheme) {
        case Scheme::kSC_EC:
          mark(primary, proxy.tiered->tier1().contents(), p);
          mark(secondary, proxy.tiered->tier2().contents(), p);
          break;
        case Scheme::kFC_EC:
          mark(primary, proxy.tier_tracker->contents(), p);
          mark(secondary, proxy.unified->contents(), p);
          break;
        default:  // SC, FC, Hier-GD
          mark(primary, proxy.cache->contents(), p);
          break;
      }
    }
    const auto same = [&](const ClusterSets& live, const ClusterSets& expected, ObjectNum object) {
      for (unsigned p = 0; p < proxies; ++p) {
        if (live.test(object, p) != expected.test(object, p)) return false;
      }
      return true;
    };
    for (ObjectNum object = 0; object < universe; ++object) {
      check.expect(same(coop_[kPrimary], primary, object),
                   "residency: primary set of object " + std::to_string(object) +
                       " disagrees with cache contents");
      check.expect(same(coop_[kSecondary], secondary, object),
                   "residency: secondary set of object " + std::to_string(object) +
                       " disagrees with cache contents");
    }
  }

  const std::uint64_t crashes = registry_->counter_value("fault.crashes");
  const std::uint64_t lost = registry_->counter_value("fault.objects_lost");
  for (unsigned p = 0; p < proxies; ++p) {
    const Proxy& proxy = proxies_[p];
    const std::string label = "proxy" + std::to_string(p);
    if (proxy.cache) check.check_cache(label + ".cache", *proxy.cache);
    if (proxy.tiered) {
      check.check_cache(label + ".tier1", proxy.tiered->tier1());
      check.check_cache(label + ".tier2", proxy.tiered->tier2());
      for (const auto object : proxy.tiered->tier1().contents()) {
        check.expect(!proxy.tiered->tier2().contains(object),
                     label + ": object " + std::to_string(object) + " resident in both tiers");
      }
    }
    if (proxy.unified) {
      check.check_cache(label + ".unified", *proxy.unified);
      check.check_cache(label + ".tier_tracker", *proxy.tier_tracker);
      for (const auto object : proxy.tier_tracker->contents()) {
        check.expect(proxy.unified->contains(object),
                     label + ": tracker object " + std::to_string(object) +
                         " missing from the unified cache");
      }
    }
    for (ClientNum c = 0; c < proxy.browsers.size(); ++c) {
      check.check_cache(label + ".browser" + std::to_string(c), *proxy.browsers[c]);
    }
    if (!proxy.p2p) continue;

    // Hier-GD's and Squirrel's cluster: overlay well-formedness and physical
    // P2P consistency.
    const std::string cluster = "cluster" + std::to_string(p);
    check.check_overlay(cluster + ".overlay", proxy.p2p->overlay());
    for (auto& violation : proxy.p2p->audit_violations()) {
      ++check.report.checks;
      check.report.violations.push_back(cluster + ": " + violation);
    }
    ++check.report.checks;  // the audit_violations sweep itself
    if (!proxy.dir) continue;  // Squirrel: no directory layer

    // The directory contract: Bloom never lies negatively; exact mirrors
    // residency until crashes make bounded staleness legal.
    const auto residents = proxy.p2p->resident_objects();
    const bool bloom = config_.directory == DirectoryKind::kBloom;
    if (bloom || crashes == 0) {
      // No false negatives: every resident object must answer positively. A
      // counting Bloom filter only ever forgets what actually left, so this
      // holds even under churn; an exact directory can legitimately purge
      // unreachable residents once crashes reshuffle Pastry roots.
      for (const auto object : residents) {
        check.expect(proxy.dir->audit_contains(object),
                     cluster + ": directory false negative for resident object " +
                         std::to_string(object));
      }
    }
    if (!bloom) {
      // Ghost entries (entry without a resident object) only come from crash
      // losses the directory has not discovered yet — their count is bounded
      // by the objects ever lost. Without crashes the mirror is exact.
      const std::unordered_set<ObjectNum> resident_set(residents.begin(), residents.end());
      std::uint64_t ghosts = 0;
      for (ObjectNum object = 0; object < universe; ++object) {
        if (proxy.dir->audit_contains(object) && !resident_set.contains(object)) ++ghosts;
      }
      check.expect(ghosts <= (crashes == 0 ? 0 : lost),
                   cluster + ": " + std::to_string(ghosts) +
                       " ghost directory entries exceed the " + std::to_string(lost) +
                       " objects lost to crashes");
    }

    // Proxy-tier greedy-dual credits: every cached object must have a
    // recorded fetch level to destage with.
    for (const auto object : proxy.cache->contents()) {
      check.expect(proxy.fetch_level.contains(object),
                   cluster + ": proxy-cached object " + std::to_string(object) +
                       " has no recorded fetch level");
    }
  }
  return check.report;
}

void Simulator::audit_or_throw() const {
  const AuditReport report = audit();
  if (report.ok()) return;
  std::string message = "invariant audit failed at request " + std::to_string(replayed_) + ":";
  for (const auto& violation : report.violations) message += "\n  - " + violation;
  throw std::logic_error(message);
}

}  // namespace webcache::sim
