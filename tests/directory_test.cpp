#include "directory/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/registry.hpp"
#include "p2p/p2p_client_cache.hpp"

namespace webcache::directory {
namespace {

TEST(ExactDirectory, TracksMembershipExactly) {
  ExactDirectory d;
  EXPECT_FALSE(d.may_contain(1));
  d.add(1);
  d.add(2);
  EXPECT_TRUE(d.may_contain(1));
  EXPECT_TRUE(d.may_contain(2));
  EXPECT_FALSE(d.may_contain(3));
  d.remove(1);
  EXPECT_FALSE(d.may_contain(1));
  EXPECT_EQ(d.entry_count(), 1u);
  EXPECT_EQ(d.kind(), "exact");
}

TEST(ExactDirectory, RemoveOfAbsentIsNoop) {
  ExactDirectory d;
  d.remove(7);
  EXPECT_EQ(d.entry_count(), 0u);
}

TEST(ExactDirectory, MemoryGrowsWithEntries) {
  ExactDirectory d;
  const auto empty = d.memory_bytes();
  for (ObjectNum o = 0; o < 100; ++o) d.add(o);
  EXPECT_GT(d.memory_bytes(), empty);
}

TEST(ExactDirectory, MemoryFollowsEntriesNotIds) {
  // A hash set of its entries: the table a far id lands in is the one a near
  // id lands in, where a flat array would span every id up to the largest.
  ExactDirectory near;
  ExactDirectory far;
  near.add(7);
  far.add(10'000'000);
  EXPECT_GT(near.memory_bytes(), 0u);
  EXPECT_EQ(far.memory_bytes(), near.memory_bytes());
  EXPECT_TRUE(far.may_contain(10'000'000));
  EXPECT_FALSE(far.may_contain(7));
}

TEST(ExactDirectory, ExpectedEntriesPresizeTheTable) {
  ExactDirectory sized(nullptr, "dir.", 500);
  const auto reserved = sized.memory_bytes();
  // Twice the expected entries under the 7/8 load ceiling: 2,048 slots.
  EXPECT_EQ(reserved, 2048 * 2 * sizeof(std::uint32_t));
  for (ObjectNum o = 0; o < 500; ++o) sized.add(o * 1'000);
  EXPECT_EQ(sized.memory_bytes(), reserved);  // no rehash up to the expectation
  EXPECT_EQ(sized.entry_count(), 500u);
}

TEST(ObjectIdTable, StableAndDistinct) {
  const auto table = build_object_id_table(100);
  ASSERT_EQ(table->size(), 100u);
  for (std::size_t i = 1; i < table->size(); ++i) {
    EXPECT_NE((*table)[i], (*table)[0]);
  }
  // Ids derive from URLs, so a rebuilt table is identical.
  const auto again = build_object_id_table(100);
  EXPECT_EQ(*table, *again);
}

TEST(ObjectIdTable, PinnedRingIds) {
  // The ring placement of every object id follows from these bytes.
  const auto table = build_object_id_table(300'000);
  ASSERT_EQ(table->size(), 300'000u);
  EXPECT_EQ((*table)[0].to_hex(), "2d5f233eba1d791401d77f609ec82e42");
  EXPECT_EQ((*table)[1].to_hex(), "40cc6c01e8b45c057521d81f285951d7");
  EXPECT_EQ((*table)[65'535].to_hex(), "a4b3668d07f52db4a5fb48ae559a61a9");
  EXPECT_EQ((*table)[299'999].to_hex(), "a6c4ddf972889d6b7d511bd3734a8825");
}

TEST(BloomDirectory, NoFalseNegatives) {
  const auto table = build_object_id_table(2000);
  BloomDirectory d(table, 500, 0.01);
  for (ObjectNum o = 0; o < 500; ++o) d.add(o);
  for (ObjectNum o = 0; o < 500; ++o) {
    EXPECT_TRUE(d.may_contain(o)) << o;
  }
  EXPECT_EQ(d.entry_count(), 500u);
  EXPECT_EQ(d.kind(), "bloom");
}

TEST(BloomDirectory, DeletionWorksUnderChurn) {
  const auto table = build_object_id_table(5000);
  BloomDirectory d(table, 200, 0.01);
  // Rolling window of 200 live entries over 5000 objects.
  for (ObjectNum o = 0; o < 5000; ++o) {
    d.add(o);
    if (o >= 200) d.remove(o - 200);
    if (o >= 10 && o % 83 == 0) {
      for (ObjectNum live = o - 9; live <= o; ++live) {
        ASSERT_TRUE(d.may_contain(live)) << "o=" << o;
      }
    }
  }
}

TEST(BloomDirectory, FalsePositiveRateIsBounded) {
  const auto table = build_object_id_table(20'000);
  BloomDirectory d(table, 1000, 0.01);
  for (ObjectNum o = 0; o < 1000; ++o) d.add(o);
  std::size_t fp = 0;
  for (ObjectNum o = 1000; o < 20'000; ++o) {
    if (d.may_contain(o)) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / 19'000.0, 0.03);
}

TEST(BloomDirectory, UsesLessMemoryThanExactAtScale) {
  // Both are sized by the live entries, not by the 200k ids that pass
  // through: the filter spends one byte per counter (about 9.6 per entry at
  // a 1 % target), the exact directory's hash table an 8-byte slot per entry
  // plus the free slots that keep its probe runs short.
  const auto table = build_object_id_table(200'000);
  BloomDirectory bloom(table, 10'000, 0.01);
  ExactDirectory exact;
  for (ObjectNum o = 0; o < 200'000; ++o) {
    bloom.add(o);
    exact.add(o);
    if (o >= 10'000) {  // rolling membership: only 10k objects live at once
      bloom.remove(o - 10'000);
      exact.remove(o - 10'000);
    }
  }
  EXPECT_LT(bloom.memory_bytes(), exact.memory_bytes());
}

TEST(BloomDirectory, RejectsMissingTableAndOutOfRange) {
  EXPECT_THROW(BloomDirectory(nullptr, 10, 0.01), std::invalid_argument);
  const auto table = build_object_id_table(10);
  BloomDirectory d(table, 10, 0.01);
  EXPECT_THROW(d.add(10), std::out_of_range);
  EXPECT_THROW((void)d.may_contain(10), std::out_of_range);
}

// --- staleness after a holder crash -----------------------------------------
//
// The directory is only told about evictions, never crashes: when the client
// physically holding a registered object dies, the entry goes stale. The
// proxy's discovery protocol is lookup (stale positive) -> P2P fetch (miss)
// -> purge. These tests drive that sequence against a real P2P cluster for
// both representations and pin the counter trail it must leave.

namespace {

struct CrashedHolderRig {
  std::shared_ptr<const std::vector<Uint128>> table = build_object_id_table(64);
  obs::Registry registry;
  p2p::P2PClientCache p2p;
  ObjectNum object = 7;

  CrashedHolderRig()
      : p2p(
            [] {
              p2p::P2PConfig cfg;
              cfg.clients = 8;
              cfg.per_client_capacity = 4;
              return cfg;
            }(),
            table, &registry) {}

  /// Stores the object, registers the receipt, then crashes whichever client
  /// physically holds it. Returns true if the object was lost as expected.
  bool store_register_and_crash(LookupDirectory& dir) {
    if (!p2p.store(object, 10.0, 0).stored) return false;
    dir.add(object);
    for (ClientNum c = 0; c < p2p.cluster_size(); ++c) {
      const auto held = p2p.contents_of(c);
      if (std::find(held.begin(), held.end(), object) == held.end()) continue;
      const auto lost = p2p.fail_client(c);
      return std::find(lost.begin(), lost.end(), object) != lost.end();
    }
    return false;
  }
};

}  // namespace

template <typename MakeDirectory>
void expect_stale_entry_is_discovered_and_purged(MakeDirectory make_directory) {
  CrashedHolderRig rig;
  auto dir = make_directory(rig);
  ASSERT_TRUE(rig.store_register_and_crash(*dir));

  // The holder is gone but the directory was never told: stale positive.
  EXPECT_TRUE(dir->may_contain(rig.object));
  EXPECT_EQ(rig.registry.counter_value("dir.lookups"), 1u);
  EXPECT_EQ(rig.registry.counter_value("dir.positives"), 1u);

  // The redirected fetch misses — discovery — and the proxy purges.
  EXPECT_FALSE(rig.p2p.fetch(rig.object, 0).hit);
  dir->remove(rig.object);
  EXPECT_EQ(rig.registry.counter_value("dir.removes"), 1u);
  EXPECT_EQ(dir->entry_count(), 0u);
  EXPECT_FALSE(dir->may_contain(rig.object));
  EXPECT_FALSE(dir->audit_contains(rig.object));
}

TEST(ExactDirectory, CrashedHolderEntryIsDiscoveredAndPurged) {
  expect_stale_entry_is_discovered_and_purged([](CrashedHolderRig& rig) {
    return std::make_unique<ExactDirectory>(&rig.registry);
  });
}

TEST(BloomDirectory, CrashedHolderEntryIsDiscoveredAndPurged) {
  expect_stale_entry_is_discovered_and_purged([](CrashedHolderRig& rig) {
    return std::make_unique<BloomDirectory>(rig.table, 64, 0.001, &rig.registry);
  });
}

TEST(LookupDirectory, AuditProbesLeaveTheCountersUntouched) {
  const auto table = build_object_id_table(32);
  obs::Registry registry;
  ExactDirectory exact(&registry);
  BloomDirectory bloom(table, 32, 0.01, &registry, "bdir.");
  exact.add(3);
  bloom.add(3);
  EXPECT_TRUE(exact.audit_contains(3));
  EXPECT_FALSE(exact.audit_contains(4));
  EXPECT_TRUE(bloom.audit_contains(3));
  EXPECT_EQ(registry.counter_value("dir.lookups"), 0u);
  EXPECT_EQ(registry.counter_value("dir.positives"), 0u);
  EXPECT_EQ(registry.counter_value("bdir.lookups"), 0u);
}

}  // namespace
}  // namespace webcache::directory
