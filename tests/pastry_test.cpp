#include "pastry/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/sha1.hpp"

namespace webcache::pastry {
namespace {

NodeId id_for(int i) { return node_id_for("node/" + std::to_string(i)); }

Uint128 key_for(int i) { return Sha1::hash128("key/" + std::to_string(i)); }

Overlay make_overlay(int n, OverlayConfig cfg = {}) {
  Overlay o(cfg);
  for (int i = 0; i < n; ++i) o.add_node(id_for(i));
  return o;
}

/// Brute-force ground truth for the numerically closest node.
NodeId brute_force_root(const std::vector<NodeId>& nodes, const Uint128& key) {
  NodeId best = nodes.front();
  for (const auto& n : nodes) {
    if (closer_to(key, n, best)) best = n;
  }
  return best;
}

TEST(RoutingTable, SlotCoordinatesMatchPrefixAndDigit) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable rt(owner, 4);
  const NodeId peer = Uint128::from_hex("a5000000000000000000000000000000");
  const auto slot = rt.slot_of(peer);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->first, 1u);   // shares 1 digit ('a')
  EXPECT_EQ(slot->second, 5u);  // next digit is 5
  EXPECT_FALSE(rt.slot_of(owner).has_value());
}

TEST(RoutingTable, InsertEraseAndNextHop) {
  const NodeId owner = Uint128::from_hex("00000000000000000000000000000000");
  RoutingTable rt(owner, 4);
  const NodeId peer = Uint128::from_hex("70000000000000000000000000000000");
  EXPECT_TRUE(rt.insert(peer));
  EXPECT_FALSE(rt.insert(peer));  // idempotent without replace
  EXPECT_EQ(rt.populated_count(), 1u);

  const Uint128 key = Uint128::from_hex("7a000000000000000000000000000000");
  const auto hop = rt.next_hop(key);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, peer);

  EXPECT_TRUE(rt.erase(peer));
  EXPECT_FALSE(rt.next_hop(key).has_value());
  EXPECT_EQ(rt.populated_count(), 0u);
}

class RoutingTableRows : public ::testing::TestWithParam<unsigned> {};

TEST_P(RoutingTableRows, RowsPastTheDeepestAllocatedReadEmpty) {
  const unsigned b = GetParam();
  RoutingTable rt(Uint128{}, b);  // owner: the all-zero id
  EXPECT_EQ(rt.allocated_rows(), 0u);
  // One set bit at digit d (0 = most significant) puts a peer in row d.
  const auto in_row = [b](unsigned d) { return Uint128{0, 1} << (128 - (d + 1) * b); };
  const NodeId shallow = in_row(1);
  const NodeId deep = in_row(3);
  const NodeId deepest = Uint128{0, 1};  // differs from the owner in the last digit only
  ASSERT_TRUE(rt.insert(shallow));
  EXPECT_EQ(rt.allocated_rows(), 2u);

  for (unsigned row = rt.allocated_rows(); row < rt.rows(); ++row) {
    for (unsigned col = 0; col < rt.columns(); ++col) {
      ASSERT_FALSE(rt.entry(row, col).has_value()) << row << "," << col;
    }
  }
  EXPECT_FALSE(rt.next_hop(deep).has_value());
  EXPECT_FALSE(rt.next_hop(deepest).has_value());
  EXPECT_FALSE(rt.erase(deep));
  EXPECT_FALSE(rt.erase(deepest));
  EXPECT_EQ(rt.allocated_rows(), 2u);  // reads and failed erases allocate nothing
  EXPECT_EQ(rt.populated_count(), 1u);

  // An entry in row 3 allocates rows 2 and 3; row 2 reads empty.
  ASSERT_TRUE(rt.insert(deep));
  EXPECT_EQ(rt.allocated_rows(), 4u);
  EXPECT_EQ(rt.next_hop(deep), std::optional<NodeId>(deep));
  EXPECT_FALSE(rt.next_hop(in_row(2)).has_value());
  EXPECT_EQ(rt.populated(), (std::vector<NodeId>{shallow, deep}));
  EXPECT_TRUE(rt.erase(deep));
  EXPECT_FALSE(rt.next_hop(deep).has_value());
  EXPECT_EQ(rt.populated_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Bases, RoutingTableRows, ::testing::Values(1u, 4u, 8u));

TEST(Overlay, RoutingTablesAllocateOnlyTheRowsTheyFill) {
  // At 100 nodes and b = 4 the tables fill about log16(100) rows, not the
  // 32 a full table has; the deepest allocated row always holds an entry.
  const auto overlay = make_overlay(100);
  for (const NodeId& id : overlay.nodes()) {
    const RoutingTable& rt = overlay.routing_table(id);
    ASSERT_GE(rt.allocated_rows(), 1u);
    EXPECT_LE(rt.allocated_rows(), 4u);
    bool deepest_filled = false;
    for (unsigned col = 0; col < rt.columns(); ++col) {
      deepest_filled = deepest_filled || rt.entry(rt.allocated_rows() - 1, col).has_value();
    }
    EXPECT_TRUE(deepest_filled);
  }
}

TEST(RoutingTable, RejectsBadDigitWidth) {
  EXPECT_THROW(RoutingTable(NodeId{}, 0), std::invalid_argument);
  EXPECT_THROW(RoutingTable(NodeId{}, 3), std::invalid_argument);   // 128 % 3 != 0
  EXPECT_THROW(RoutingTable(NodeId{}, 16), std::invalid_argument);  // > 8
}

TEST(LeafSet, KeepsClosestPerSide) {
  const NodeId owner(0, 100);
  LeafSet ls(owner, 4);  // 2 per side
  for (const std::uint64_t v : {105U, 110U, 115U, 95U, 90U, 85U}) ls.insert(NodeId(0, v));
  // Clockwise side keeps 105, 110; counter-clockwise keeps 95, 90.
  EXPECT_TRUE(ls.contains(NodeId(0, 105)));
  EXPECT_TRUE(ls.contains(NodeId(0, 110)));
  EXPECT_FALSE(ls.contains(NodeId(0, 115)));
  EXPECT_TRUE(ls.contains(NodeId(0, 95)));
  EXPECT_TRUE(ls.contains(NodeId(0, 90)));
  EXPECT_FALSE(ls.contains(NodeId(0, 85)));
}

TEST(LeafSet, ClosestToFindsNumericallyNearest) {
  const NodeId owner(0, 100);
  LeafSet ls(owner, 4);
  ls.insert(NodeId(0, 105));
  ls.insert(NodeId(0, 90));
  EXPECT_EQ(ls.closest_to(Uint128(0, 104)), NodeId(0, 105));
  EXPECT_EQ(ls.closest_to(Uint128(0, 99)), owner);
  EXPECT_EQ(ls.closest_to(Uint128(0, 92)), NodeId(0, 90));
}

TEST(LeafSet, RejectsOddSize) {
  EXPECT_THROW(LeafSet(NodeId{}, 3), std::invalid_argument);
  EXPECT_THROW(LeafSet(NodeId{}, 0), std::invalid_argument);
}

TEST(Overlay, LeafSetsMatchGroundTruthRing) {
  const auto overlay = make_overlay(64);
  auto ids = overlay.nodes();
  ASSERT_EQ(ids.size(), 64u);
  std::sort(ids.begin(), ids.end());

  // For each node, the leaf set must contain exactly the l/2 ring
  // successors and predecessors.
  const unsigned per_side = overlay.config().leaf_set_size / 2;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& ls = overlay.leaf_set(ids[i]);
    for (unsigned k = 1; k <= per_side; ++k) {
      EXPECT_TRUE(ls.contains(ids[(i + k) % ids.size()]));
      EXPECT_TRUE(ls.contains(ids[(i + ids.size() - k) % ids.size()]));
    }
  }
}

TEST(Overlay, RootOfMatchesBruteForce) {
  const auto overlay = make_overlay(50);
  const auto ids = overlay.nodes();
  for (int k = 0; k < 500; ++k) {
    const auto key = key_for(k);
    EXPECT_EQ(overlay.root_of(key), brute_force_root(ids, key));
  }
}

TEST(Overlay, RoutingAlwaysReachesTheRoot) {
  auto overlay = make_overlay(100);
  const auto ids = overlay.nodes();
  Rng rng(4);
  for (int k = 0; k < 1000; ++k) {
    const auto key = key_for(k);
    const auto& from = ids[rng.next_below(ids.size())];
    const auto result = overlay.route(from, key);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.destination, overlay.root_of(key));
  }
}

TEST(Overlay, HopCountWithinLogBound) {
  for (const int n : {16, 64, 256}) {
    auto overlay = make_overlay(n);
    const auto ids = overlay.nodes();
    Rng rng(9);
    double total_hops = 0;
    unsigned max_hops = 0;
    constexpr int kMessages = 500;
    for (int k = 0; k < kMessages; ++k) {
      const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
      ASSERT_TRUE(result.success);
      total_hops += result.hops;
      max_hops = std::max(max_hops, result.hops);
    }
    // Expected ceil(log_16 N) with small constant slack; leaf-set delivery
    // can add one extra hop.
    const auto bound = overlay.expected_hop_bound();
    EXPECT_LE(max_hops, bound + 2) << "n=" << n;
    EXPECT_LE(total_hops / kMessages, static_cast<double>(bound) + 1.0) << "n=" << n;
  }
}

TEST(Overlay, RouteFromRootIsZeroHops) {
  auto overlay = make_overlay(32);
  const auto key = key_for(7);
  const auto root = overlay.root_of(key);
  const auto result = overlay.route(root, key);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.hops, 0u);
}

TEST(Overlay, DuplicateJoinThrows) {
  auto overlay = make_overlay(4);
  EXPECT_THROW(overlay.add_node(id_for(0)), std::invalid_argument);
}

TEST(Overlay, GracefulLeaveKeepsRoutingCorrect) {
  auto overlay = make_overlay(40);
  for (int i = 0; i < 10; ++i) overlay.remove_node(id_for(i));
  EXPECT_EQ(overlay.size(), 30u);
  const auto ids = overlay.nodes();
  Rng rng(12);
  for (int k = 0; k < 300; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success);
  }
}

TEST(Overlay, CrashFailuresAreRoutedAround) {
  auto overlay = make_overlay(60);
  Rng rng(21);
  // Crash 15 nodes without any repair pass.
  for (int i = 0; i < 15; ++i) overlay.fail_node(id_for(i));
  const auto ids = overlay.nodes();
  ASSERT_EQ(ids.size(), 45u);
  for (int k = 0; k < 500; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success) << "key " << k;
  }
  EXPECT_GT(overlay.stats().dead_hop_detections, 0u);
}

TEST(Overlay, RepairAllPrunesDeadState) {
  auto overlay = make_overlay(60);
  for (int i = 0; i < 20; ++i) overlay.fail_node(id_for(i));
  overlay.repair_all();
  // After repair, no live node references a dead one.
  for (const auto& id : overlay.nodes()) {
    for (const auto& member : overlay.leaf_set(id).members()) {
      EXPECT_TRUE(overlay.contains(member));
    }
    for (const auto& entry : overlay.routing_table(id).populated()) {
      EXPECT_TRUE(overlay.contains(entry));
    }
  }
  // Routing after repair hits no dead references.
  overlay.reset_stats();
  const auto ids = overlay.nodes();
  Rng rng(31);
  for (int k = 0; k < 300; ++k) {
    (void)overlay.route(ids[rng.next_below(ids.size())], key_for(k));
  }
  EXPECT_EQ(overlay.stats().dead_hop_detections, 0u);
}

TEST(Overlay, SingleNodeDeliversEverythingLocally) {
  auto overlay = make_overlay(1);
  const auto root = overlay.nodes().front();
  for (int k = 0; k < 20; ++k) {
    const auto result = overlay.route(root, key_for(k));
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.hops, 0u);
    EXPECT_EQ(result.destination, root);
  }
}

TEST(Overlay, StatsAccumulateHops) {
  auto overlay = make_overlay(64);
  const auto ids = overlay.nodes();
  overlay.reset_stats();
  Rng rng(2);
  for (int k = 0; k < 100; ++k) {
    (void)overlay.route(ids[rng.next_below(ids.size())], key_for(k));
  }
  EXPECT_EQ(overlay.stats().messages_routed, 100u);
  EXPECT_GT(overlay.stats().total_hops, 0u);
}

class OverlayDigitWidth : public ::testing::TestWithParam<unsigned> {};

TEST_P(OverlayDigitWidth, RoutingCorrectForAllBases) {
  OverlayConfig cfg;
  cfg.bits_per_digit = GetParam();
  auto overlay = make_overlay(48, cfg);
  const auto ids = overlay.nodes();
  Rng rng(5);
  for (int k = 0; k < 200; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success);
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, OverlayDigitWidth, ::testing::Values(1u, 2u, 4u, 8u));

class OverlayLeafSize : public ::testing::TestWithParam<unsigned> {};

TEST_P(OverlayLeafSize, RoutingCorrectForLeafSetSizes) {
  OverlayConfig cfg;
  cfg.leaf_set_size = GetParam();
  auto overlay = make_overlay(48, cfg);
  const auto ids = overlay.nodes();
  Rng rng(6);
  for (int k = 0; k < 200; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, OverlayLeafSize, ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(Overlay, ChurnStressKeepsRoutingCorrect) {
  OverlayConfig cfg;
  auto overlay = Overlay(cfg);
  Rng rng(77);
  std::set<int> alive;
  int next_id = 0;
  // Seed with 30 nodes.
  for (; next_id < 30; ++next_id) {
    overlay.add_node(id_for(next_id));
    alive.insert(next_id);
  }
  for (int round = 0; round < 60; ++round) {
    const int action = static_cast<int>(rng.next_below(3));
    if (action == 0) {
      overlay.add_node(id_for(next_id));
      alive.insert(next_id);
      ++next_id;
    } else if (action == 1 && alive.size() > 5) {
      auto it = alive.begin();
      std::advance(it, static_cast<long>(rng.next_below(alive.size())));
      overlay.fail_node(id_for(*it));
      alive.erase(it);
    } else if (alive.size() > 5) {
      auto it = alive.begin();
      std::advance(it, static_cast<long>(rng.next_below(alive.size())));
      overlay.remove_node(id_for(*it));
      alive.erase(it);
    }
    // A few routes each round must all deliver to the true root.
    const auto ids = overlay.nodes();
    for (int k = 0; k < 10; ++k) {
      const auto key = key_for(round * 100 + k);
      const auto result = overlay.route(ids[rng.next_below(ids.size())], key);
      ASSERT_TRUE(result.success) << "round " << round;
    }
  }
}

// --- churn repair behavior --------------------------------------------------

TEST(Overlay, SimultaneousAdjacentFailuresRepairToGroundTruthLeafSets) {
  auto overlay = make_overlay(40);
  auto ids = overlay.nodes();
  std::sort(ids.begin(), ids.end());

  // Crash a node's immediate ring neighbors on *both* sides at once — the
  // worst case for leaf-set repair, since each side must be refilled from
  // beyond the dead pair with no graceful-leave announcement to help.
  const std::size_t i = 10;
  const NodeId survivor = ids[i];
  overlay.fail_node(ids[i - 1]);
  overlay.fail_node(ids[i + 1]);

  // Routing from the orphaned node still succeeds mid-churn.
  for (int k = 0; k < 100; ++k) {
    EXPECT_TRUE(overlay.route(survivor, key_for(k)).success);
  }

  const auto repairs_before = overlay.stats().repairs;
  overlay.repair_all();
  EXPECT_GT(overlay.stats().repairs, repairs_before);

  // After repair, every leaf set matches the ground-truth live ring exactly:
  // the l/2 nearest live successors and predecessors, nothing dead.
  auto live = overlay.nodes();
  std::sort(live.begin(), live.end());
  const unsigned per_side = overlay.config().leaf_set_size / 2;
  for (std::size_t n = 0; n < live.size(); ++n) {
    const auto& ls = overlay.leaf_set(live[n]);
    for (const auto& member : ls.members()) {
      EXPECT_TRUE(overlay.contains(member)) << "stale leaf survived repair";
    }
    for (unsigned k = 1; k <= per_side && k < live.size(); ++k) {
      EXPECT_TRUE(ls.contains(live[(n + k) % live.size()]));
      EXPECT_TRUE(ls.contains(live[(n + live.size() - k) % live.size()]));
    }
  }
}

TEST(Overlay, JoinReplacesDeadIncumbentAndCountsExactlyOneRepair) {
  // Crafted ids pin the routing-table geometry: B and C compete for the same
  // slot (row 0, digit 2) of A's table.
  const NodeId a = Uint128::from_hex("10000000000000000000000000000000");
  const NodeId b = Uint128::from_hex("20000000000000000000000000000000");
  const NodeId c = Uint128::from_hex("21000000000000000000000000000000");
  Overlay overlay{OverlayConfig{}};
  overlay.add_node(a);
  overlay.add_node(b);
  ASSERT_EQ(overlay.routing_table(a).entry(0, 2), std::optional<NodeId>(b));

  overlay.fail_node(b);
  EXPECT_EQ(overlay.stats().repairs, 0u);  // crashes are silent; no repair yet

  // C's join must evict the dead incumbent from A's slot — leaving B in
  // place would point later routes at a guaranteed timeout — and the repair
  // counter must record exactly that one replacement.
  overlay.add_node(c);
  EXPECT_EQ(overlay.stats().repairs, 1u);
  EXPECT_EQ(overlay.routing_table(a).entry(0, 2), std::optional<NodeId>(c));
  for (const auto& entry : overlay.routing_table(a).populated()) {
    EXPECT_NE(entry, b);
  }
}

TEST(Overlay, RejoinRestoresArchivedCoordinates) {
  const NodeId id = id_for(1);
  const Coordinates where{0.125, 0.875};
  Overlay overlay{OverlayConfig{}};
  overlay.add_node(id_for(0));
  overlay.add_node(id, where);
  overlay.fail_node(id);
  EXPECT_FALSE(overlay.contains(id));

  overlay.rejoin_node(id);
  ASSERT_TRUE(overlay.contains(id));
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(id).x, where.x);
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(id).y, where.y);

  // A node the overlay never saw fail joins at its default coordinates.
  const NodeId fresh = id_for(2);
  overlay.rejoin_node(fresh);
  ASSERT_TRUE(overlay.contains(fresh));
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(fresh).x, default_coordinates(fresh).x);
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(fresh).y, default_coordinates(fresh).y);
}

// --- membership-script pin ---------------------------------------------------

/// FNV-1a 64 over little-endian 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ = (state_ ^ ((word >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void add(const Uint128& v) {
    add(v.hi);
    add(v.lo);
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Runs a fixed script of joins (some at explicit coordinates), crashes,
/// graceful departures, rejoins and repair passes over a pool of 64 ids,
/// routing 2,000 messages along the way, and digests every route result and
/// the final membership, counters, leaf sets, routing tables and
/// coordinates. Every walk of the overlay is in ascending-id order, so the
/// digest pins hop counts, repairs and routes across any change to how the
/// overlay stores its membership.
std::uint64_t membership_script_digest(bool proximity_routing) {
  OverlayConfig cfg;
  cfg.proximity_routing = proximity_routing;
  Overlay overlay(cfg);
  Rng rng(1919);
  Fnv1a fnv;

  constexpr int kPool = 64;
  std::vector<int> fresh;    // never joined
  std::vector<int> alive;    // live members
  std::vector<int> crashed;  // failed, eligible for rejoin_node
  std::vector<int> departed; // left gracefully, eligible for add_node
  for (int i = kPool - 1; i >= 0; --i) fresh.push_back(i);
  const auto take = [&rng](std::vector<int>& from) {
    const auto at = static_cast<std::size_t>(rng.next_below(from.size()));
    const int v = from[at];
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(at));
    return v;
  };
  const auto join = [&](int i) {
    if (rng.next_below(3) == 0) {
      const Coordinates where{rng.next_double(), rng.next_double()};
      overlay.add_node(id_for(i), where);
    } else {
      overlay.add_node(id_for(i));
    }
    alive.push_back(i);
  };
  for (int i = 0; i < 40; ++i) join(take(fresh));

  bool rejoined_unseen = false;
  int fails = 0, removes = 0, rejoins = 0, repairs = 0, readds = 0;
  for (int step = 0; step < 200; ++step) {
    switch (rng.next_below(6)) {
      case 0:
        if (!fresh.empty()) join(take(fresh));
        break;
      case 1:
        if (alive.size() > 8) {
          const int i = take(alive);
          overlay.fail_node(id_for(i));
          crashed.push_back(i);
          ++fails;
        }
        break;
      case 2:
        if (alive.size() > 8) {
          const int i = take(alive);
          overlay.remove_node(id_for(i));
          departed.push_back(i);
          ++removes;
        }
        break;
      case 3:
        if (!crashed.empty()) {
          const int i = take(crashed);
          overlay.rejoin_node(id_for(i));
          alive.push_back(i);
          ++rejoins;
        } else if (!rejoined_unseen && !fresh.empty()) {
          // rejoin_node of an id the overlay never saw: default coordinates.
          const int i = take(fresh);
          overlay.rejoin_node(id_for(i));
          alive.push_back(i);
          rejoined_unseen = true;
        }
        break;
      case 4:
        overlay.repair_all();
        ++repairs;
        break;
      default:
        if (!departed.empty()) {
          join(take(departed));
          ++readds;
        }
        break;
    }
    for (int k = 0; k < 10; ++k) {
      const int from = alive[static_cast<std::size_t>(rng.next_below(alive.size()))];
      const Uint128 key{rng(), rng()};
      const RouteResult r = overlay.route(id_for(from), key);
      fnv.add(std::uint64_t{r.destination_slot});
      fnv.add(std::uint64_t{r.hops});
      fnv.add(std::uint64_t{r.success});
      fnv.add(r.distance);
    }
  }
  // The script must keep exercising every membership path.
  EXPECT_TRUE(rejoined_unseen);
  EXPECT_GT(fails, 0);
  EXPECT_GT(removes, 0);
  EXPECT_GT(rejoins, 0);
  EXPECT_GT(repairs, 0);
  EXPECT_GT(readds, 0);

  const OverlayStats s = overlay.stats();
  EXPECT_GT(s.dead_hop_detections, 0U);
  EXPECT_GT(s.repairs, 0U);
  fnv.add(s.messages_routed);
  fnv.add(s.total_hops);
  fnv.add(s.dead_hop_detections);
  fnv.add(s.fallback_hops);
  fnv.add(s.repairs);
  for (const auto& id : overlay.nodes()) {
    fnv.add(id);
    fnv.add(overlay.coordinates_of(id).x);
    fnv.add(overlay.coordinates_of(id).y);
    for (const auto& member : overlay.leaf_set(id).members()) fnv.add(member);
    for (const auto& entry : overlay.routing_table(id).populated()) fnv.add(entry);
  }
  return fnv.value();
}

// Recorded constants: a change to how the overlay stores its membership must
// reproduce them exactly.
TEST(Overlay, MembershipScriptIsStable) {
  EXPECT_EQ(membership_script_digest(/*proximity_routing=*/false), 0xf5711a15533ec4d8ULL);
  EXPECT_EQ(membership_script_digest(/*proximity_routing=*/true), 0xfc5e5052b1fb313fULL);
}

}  // namespace
}  // namespace webcache::pastry
