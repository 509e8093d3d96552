// Property-based tests for the churn engine (fault::*) and the simulator's
// invariant audit: schedule expansion is a pure function of its spec, the
// engine dispatches by trace position only, Simulator::audit() passes at
// every audit interval across the full scheme matrix, and two
// differential oracles pin the physics — churn never *helps* a scheme, and
// Hier-GD under churn stays below its ideal pooled-cache (NC-EC) bound.
// Finally, the churn determinism test extends the repo's byte-identical
// metrics-JSON guarantee to runs with an active failure schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fault/churn_engine.hpp"
#include "fault/churn_schedule.hpp"
#include "fault/loss_model.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"

namespace {

using namespace webcache;

workload::Trace churn_trace(std::uint64_t requests = 40'000, ObjectNum objects = 2'000) {
  workload::ProWGenConfig cfg;
  cfg.total_requests = requests;
  cfg.distinct_objects = objects;
  cfg.seed = 733;
  return workload::ProWGen(cfg).generate();
}

sim::SimConfig base_config(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.proxy_capacity = 200;
  cfg.clients_per_cluster = 50;
  cfg.client_cache_capacity = 3;
  return cfg;
}

fault::ChurnSpec heavy_spec(std::uint64_t trace_length) {
  fault::ChurnSpec spec;
  spec.start = trace_length / 4;
  spec.crashes = 12;
  spec.recover_after = trace_length / 10;
  spec.joins = 3;
  spec.repair_every = trace_length / 8;
  spec.seed = 99;
  return spec;
}

// --- schedule expansion -----------------------------------------------------

TEST(ChurnSchedule, IsAPureFunctionOfItsInputs) {
  const auto spec = heavy_spec(40'000);
  const auto a = fault::make_schedule(spec, 40'000, 4, 50);
  const auto b = fault::make_schedule(spec, 40'000, 4, 50);
  EXPECT_EQ(a, b);

  auto reseeded = spec;
  reseeded.seed = 100;
  EXPECT_NE(a, fault::make_schedule(reseeded, 40'000, 4, 50));
}

TEST(ChurnSchedule, IsSortedInBoundsAndCrashesDistinctClients) {
  const std::uint64_t len = 40'000;
  const auto spec = heavy_spec(len);
  const auto events = fault::make_schedule(spec, len, 4, 50);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const auto& a, const auto& b) { return a.time < b.time; }));
  for (unsigned p = 0; p < 4; ++p) {
    std::vector<ClientNum> crashed;
    for (const auto& e : events) {
      EXPECT_GE(e.time, spec.start);
      EXPECT_LT(e.time, len);
      EXPECT_LT(e.proxy, 4u);
      if (e.proxy == p && e.action == fault::ChurnAction::kCrash) {
        EXPECT_LT(e.client, 50u);
        crashed.push_back(e.client);
      }
    }
    EXPECT_EQ(crashed.size(), spec.crashes);
    std::sort(crashed.begin(), crashed.end());
    EXPECT_EQ(std::adjacent_find(crashed.begin(), crashed.end()), crashed.end())
        << "cluster " << p << " crashes the same client twice";
  }
}

TEST(ChurnSchedule, EveryCrashGetsARejoinWithinTheTrace) {
  const std::uint64_t len = 40'000;
  auto spec = heavy_spec(len);
  spec.recover_after = 1;  // rejoin cannot fall off the end
  const auto events = fault::make_schedule(spec, len, 2, 50);
  for (const auto& e : events) {
    if (e.action != fault::ChurnAction::kCrash) continue;
    const auto rejoin = std::find_if(events.begin(), events.end(), [&](const auto& r) {
      return r.action == fault::ChurnAction::kRejoin && r.proxy == e.proxy &&
             r.client == e.client && r.time == e.time + spec.recover_after;
    });
    EXPECT_NE(rejoin, events.end()) << "crash at " << e.time << " never recovers";
  }
}

TEST(ChurnSchedule, CapsCrashesBelowClusterSizeAndValidatesInputs) {
  fault::ChurnSpec spec;
  spec.crashes = 50;  // more than the cluster holds
  const auto events = fault::make_schedule(spec, 10'000, 1, 5);
  const auto crashes = std::count_if(events.begin(), events.end(), [](const auto& e) {
    return e.action == fault::ChurnAction::kCrash;
  });
  EXPECT_EQ(crashes, 4);  // cluster of 5 always keeps one live client

  EXPECT_THROW((void)fault::make_schedule(spec, 10'000, 0, 5), std::invalid_argument);
  EXPECT_THROW((void)fault::make_schedule(spec, 10'000, 1, 0), std::invalid_argument);
  spec.start = 10'000;  // no room left for the requested events
  EXPECT_THROW((void)fault::make_schedule(spec, 10'000, 1, 5), std::invalid_argument);
}

// --- engine dispatch --------------------------------------------------------

TEST(ChurnEngine, FiresDueEventsInScheduleOrder) {
  std::vector<fault::ChurnEvent> events = {
      {30, 0, 2, fault::ChurnAction::kRejoin},
      {10, 0, 2, fault::ChurnAction::kCrash},
      {10, 1, 0, fault::ChurnAction::kRepair},
      {50, 0, 0, fault::ChurnAction::kJoin},
  };
  fault::ChurnEngine engine(events);
  EXPECT_EQ(engine.size(), 4u);

  std::vector<fault::ChurnEvent> fired;
  const auto record = [&](const fault::ChurnEvent& e) { fired.push_back(e); };
  engine.advance(9, record);
  EXPECT_TRUE(fired.empty());
  engine.advance(10, record);  // both time-10 events, authored order preserved
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].action, fault::ChurnAction::kCrash);
  EXPECT_EQ(fired[1].action, fault::ChurnAction::kRepair);
  engine.advance(49, record);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_FALSE(engine.exhausted());
  engine.advance(1'000, record);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_TRUE(engine.exhausted());
  EXPECT_EQ(engine.applied(), 4u);
}

// --- message-loss model -----------------------------------------------------

TEST(LossModel, IsDeterministicBoundedAndValidated) {
  fault::LossModel off(0.0, 7);
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 1'000; ++i) EXPECT_FALSE(off.lose_message());
  EXPECT_EQ(off.losses(), 0u);

  fault::LossModel a(0.25, 7);
  fault::LossModel b(0.25, 7);
  std::uint64_t losses = 0;
  for (int i = 0; i < 10'000; ++i) {
    const bool lost = a.lose_message();
    EXPECT_EQ(lost, b.lose_message());
    losses += lost ? 1 : 0;
  }
  EXPECT_EQ(a.losses(), losses);
  EXPECT_NEAR(static_cast<double>(losses) / 10'000.0, 0.25, 0.02);

  EXPECT_THROW(fault::LossModel(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(fault::LossModel(1.0, 1), std::invalid_argument);
}

// --- invariant audits across the scheme matrix ------------------------------

// Every scheme must pass the cross-layer audit at every audit point; the
// addressable schemes (Hier-GD, Squirrel) are additionally audited while a
// heavy churn schedule and P2P message loss are active.
TEST(InvariantAudit, PassesAtEveryCheckpointForAllSchemes) {
  const auto trace = churn_trace();
  std::vector<sim::Scheme> schemes(sim::kAllSchemes.begin(), sim::kAllSchemes.end());
  schemes.push_back(sim::Scheme::kSquirrel);
  for (const auto scheme : schemes) {
    const bool addressable =
        scheme == sim::Scheme::kHierGD || scheme == sim::Scheme::kSquirrel;
    for (const std::uint64_t seed : {99ull, 424242ull}) {
      auto cfg = base_config(scheme);
      cfg.audit_interval = 4'000;
      if (addressable) {
        auto spec = heavy_spec(trace.size());
        spec.seed = seed;
        cfg.churn_events = fault::make_schedule(spec, trace.size(), cfg.num_proxies,
                                                cfg.clients_per_cluster);
        cfg.p2p_loss_rate = 0.05;
      } else if (seed != 99ull) {
        continue;  // no churn to reseed; the run would be identical
      }
      const auto m = sim::run_simulation(cfg, trace);  // throws on an audit violation
      EXPECT_EQ(m.requests, trace.size()) << sim::to_string(scheme);
      EXPECT_EQ(m.total_hits() + m.server_fetches, trace.size())
          << sim::to_string(scheme) << " seed " << seed;
    }
  }
}

TEST(InvariantAudit, PassesUnderChurnForBothDirectoryKinds) {
  const auto trace = churn_trace();
  for (const auto kind : {sim::DirectoryKind::kExact, sim::DirectoryKind::kBloom}) {
    for (const std::uint64_t seed : {2003ull, 7919ull}) {
      auto cfg = base_config(sim::Scheme::kHierGD);
      cfg.directory = kind;
      cfg.audit_interval = 4'000;
      auto spec = heavy_spec(trace.size());
      spec.seed = seed;
      cfg.churn_events = fault::make_schedule(spec, trace.size(), cfg.num_proxies,
                                              cfg.clients_per_cluster);
      const auto m = sim::run_simulation(cfg, trace);
      EXPECT_EQ(m.requests, trace.size());
    }
  }
}

TEST(InvariantAudit, ReportsRealCheckCoverage) {
  const auto trace = churn_trace(10'000, 1'000);
  auto cfg = base_config(sim::Scheme::kHierGD);
  sim::Simulator sim(cfg, trace);
  (void)sim.run();
  const auto report = sim.audit();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GT(report.checks, 1'000u);  // walks caches, overlay, directory, ledger
}

// The residency and ghost-entry checks must not switch off once the proxy
// count outgrows one 64-bit word: more proxies can only add checks.
TEST(InvariantAudit, CoverageDoesNotShrinkAbove64Proxies) {
  const auto trace = churn_trace(10'000, 3'000);
  for (const auto scheme : {sim::Scheme::kSC, sim::Scheme::kFC_EC, sim::Scheme::kHierGD}) {
    std::uint64_t checks[2] = {0, 0};
    for (const unsigned proxies : {64U, 65U}) {
      auto cfg = base_config(scheme);
      cfg.num_proxies = proxies;
      cfg.proxy_capacity = 20;
      cfg.clients_per_cluster = 10;
      sim::Simulator sim(cfg, trace);
      (void)sim.run();
      const auto report = sim.audit();
      EXPECT_TRUE(report.ok()) << sim::to_string(scheme) << ": " << report.violations.front();
      checks[proxies - 64] = report.checks;
    }
    EXPECT_GE(checks[1], checks[0]) << sim::to_string(scheme);
  }
}

// --- differential oracles ---------------------------------------------------

// Crashing clients can only lose cached bytes; a crash-only schedule must
// never improve on the fault-free run (small slack: a crash perturbs
// greedy-dual tie-breaks, which can accidentally help a little).
TEST(ChurnOracle, CrashOnlyChurnNeverBeatsTheFaultFreeRun) {
  const auto trace = churn_trace();
  auto healthy = base_config(sim::Scheme::kHierGD);
  const auto m_healthy = sim::run_simulation(healthy, trace);

  auto churned = base_config(sim::Scheme::kHierGD);
  auto spec = heavy_spec(trace.size());
  spec.joins = 0;  // joins add capacity, which genuinely can help
  churned.churn_events = fault::make_schedule(spec, trace.size(), churned.num_proxies,
                                              churned.clients_per_cluster);
  const auto m_churned = sim::run_simulation(churned, trace);

  EXPECT_LE(m_churned.hit_ratio(), m_healthy.hit_ratio() + 0.01);
  EXPECT_GE(m_churned.mean_latency(), m_healthy.mean_latency() - 0.5);
}

// NC-EC is the idealized pooled scheme (proxy unified with all client-cache
// capacity, no placement constraints, no failures). Fusing the *entire*
// system's bytes — both proxies, both client clusters — into one such pool
// gives an upper bound: it holds at least as many distinct objects as any
// distributed arrangement of the same capacity (cooperation can reach a
// remote copy, but never beats having no duplicates at all), and churn only
// takes bytes away. Slack absorbs eviction-order noise between the
// policies.
TEST(ChurnOracle, ChurnedHierGdStaysBelowThePooledNcEcBound) {
  const auto trace = churn_trace();
  auto real = base_config(sim::Scheme::kHierGD);
  real.num_proxies = 2;
  auto spec = heavy_spec(trace.size());
  spec.joins = 0;  // joins would grow the real system past the pooled budget
  real.churn_events = fault::make_schedule(spec, trace.size(), real.num_proxies,
                                           real.clients_per_cluster);
  const auto m_real = sim::run_simulation(real, trace);

  auto ideal = base_config(sim::Scheme::kNC_EC);
  ideal.num_proxies = 1;
  ideal.proxy_capacity = real.proxy_capacity * 2;
  ideal.clients_per_cluster = static_cast<ClientNum>(real.clients_per_cluster * 2);
  const auto m_ideal = sim::run_simulation(ideal, trace);

  EXPECT_LE(m_real.hit_ratio(), m_ideal.hit_ratio() + 0.02);
}

// --- fault counters and loss accounting -------------------------------------

TEST(FaultCounters, TrackCrashesRejoinsJoinsAndRepairs) {
  const auto trace = churn_trace();
  auto cfg = base_config(sim::Scheme::kHierGD);
  cfg.registry = std::make_shared<obs::Registry>();
  cfg.churn_events = fault::make_schedule(heavy_spec(trace.size()), trace.size(),
                                          cfg.num_proxies, cfg.clients_per_cluster);
  (void)sim::run_simulation(cfg, trace);
  const auto& reg = *cfg.registry;
  EXPECT_GT(reg.counter_value("fault.crashes"), 0u);
  EXPECT_GT(reg.counter_value("fault.rejoins"), 0u);
  EXPECT_GT(reg.counter_value("fault.joins"), 0u);
  EXPECT_GT(reg.counter_value("fault.repairs"), 0u);
  EXPECT_GT(reg.counter_value("fault.objects_lost"), 0u);
  EXPECT_LE(reg.counter_value("fault.rejoins"), reg.counter_value("fault.crashes"));
}

TEST(MessageLoss, LostTransfersAreRetriedAndCostLatency) {
  const auto trace = churn_trace();
  auto clean = base_config(sim::Scheme::kHierGD);
  const auto m_clean = sim::run_simulation(clean, trace);
  EXPECT_EQ(m_clean.messages.p2p_messages_lost, 0u);
  EXPECT_EQ(m_clean.messages.p2p_retries, 0u);

  auto lossy = base_config(sim::Scheme::kHierGD);
  lossy.p2p_loss_rate = 0.2;
  const auto m_lossy = sim::run_simulation(lossy, trace);
  EXPECT_GT(m_lossy.messages.p2p_messages_lost, 0u);
  EXPECT_EQ(m_lossy.messages.p2p_retries, m_lossy.messages.p2p_messages_lost);
  // Loss costs time, never bytes: same outcomes as hits/misses, more latency.
  EXPECT_EQ(m_lossy.requests, trace.size());
  EXPECT_GT(m_lossy.total_latency, m_clean.total_latency);
  EXPECT_GT(m_lossy.wasted_p2p_latency, m_clean.wasted_p2p_latency);
}

TEST(MessageLoss, RequiresAP2PTier) {
  const auto trace = churn_trace(5'000, 500);
  auto cfg = base_config(sim::Scheme::kSC);
  cfg.p2p_loss_rate = 0.1;
  EXPECT_THROW(sim::Simulator(cfg, trace), std::invalid_argument);
}

TEST(ChurnConfig, RejectsSchemesWithoutAddressableClients) {
  const auto trace = churn_trace(5'000, 500);
  auto cfg = base_config(sim::Scheme::kFC_EC);
  cfg.churn_events = {{100, 0, 1, fault::ChurnAction::kCrash}};
  EXPECT_THROW(sim::Simulator(cfg, trace), std::invalid_argument);
}

TEST(ChurnConfig, UnknownProxyInScheduleRejectedAtDispatch) {
  const auto trace = churn_trace(5'000, 500);
  auto cfg = base_config(sim::Scheme::kHierGD);
  cfg.churn_events = {{10, 99, 0, fault::ChurnAction::kCrash}};
  sim::Simulator sim(cfg, trace);
  EXPECT_THROW((void)sim.run(), std::invalid_argument);
}

// --- determinism ------------------------------------------------------------

// The repo's byte-identical metrics-JSON guarantee must survive an active
// churn schedule and message loss: same (schedule, seed) -> same document at
// any worker-thread count.
TEST(ChurnDeterminism, SweepJsonIsByteIdenticalAcrossThreadCountsUnderChurn) {
  const auto trace = churn_trace(20'000, 2'000);
  core::SweepConfig cfg;
  cfg.cache_percents = {20.0, 60.0};
  cfg.schemes = {sim::Scheme::kNC, sim::Scheme::kSC, sim::Scheme::kHierGD};
  cfg.collect_observability = true;
  cfg.base.snapshot_interval = 5'000;
  cfg.base.churn_events = fault::make_schedule(heavy_spec(trace.size()), trace.size(),
                                               cfg.base.num_proxies,
                                               cfg.base.clients_per_cluster);
  cfg.base.p2p_loss_rate = 0.05;

  cfg.threads = 1;
  const auto serial = core::run_sweep(trace, cfg);
  cfg.threads = 8;
  const auto parallel = core::run_sweep(trace, cfg);

  std::ostringstream a;
  std::ostringstream b;
  core::write_metrics_json(a, serial, "churn-determinism");
  core::write_metrics_json(b, parallel, "churn-determinism");
  ASSERT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("fault.crashes"), std::string::npos);
}

// Auditing is read-only: an audited run must export the same counters as the
// identical run without audits.
TEST(ChurnDeterminism, AuditsDoNotPerturbExportedMetrics) {
  const auto trace = churn_trace(20'000, 2'000);
  const auto run_with = [&](bool audited) {
    auto cfg = base_config(sim::Scheme::kHierGD);
    cfg.registry = std::make_shared<obs::Registry>();
    cfg.churn_events = fault::make_schedule(heavy_spec(trace.size()), trace.size(),
                                            cfg.num_proxies, cfg.clients_per_cluster);
    if (audited) cfg.audit_interval = 2'000;
    (void)sim::run_simulation(cfg, trace);
    std::ostringstream out;
    cfg.registry->write_json_body(out, 0);
    return out.str();
  };
  EXPECT_EQ(run_with(true), run_with(false));
}

}  // namespace
