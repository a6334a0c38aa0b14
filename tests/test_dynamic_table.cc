#include "dycuckoo/dynamic_table.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dycuckoo/dycuckoo.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::ReferenceModel;
using testing::SequentialValues;
using testing::UniqueKeys;

std::unique_ptr<DyCuckooMap> MakeTable(DyCuckooOptions options = {}) {
  std::unique_ptr<DyCuckooMap> table;
  Status st = DyCuckooMap::Create(options, &table);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return table;
}

TEST(DynamicTableTest, CreateRejectsBadOptions) {
  DyCuckooOptions o;
  o.num_subtables = 1;
  std::unique_ptr<DyCuckooMap> table;
  EXPECT_TRUE(DyCuckooMap::Create(o, &table).IsInvalidArgument());
}

TEST(DynamicTableTest, EmptyTableBasics) {
  auto t = MakeTable();
  EXPECT_EQ(t->size(), 0u);
  EXPECT_DOUBLE_EQ(t->filled_factor(), 0.0);
  EXPECT_EQ(t->num_subtables(), 4);
  EXPECT_FALSE(t->Find(123));
  EXPECT_FALSE(t->Erase(123));
  EXPECT_TRUE(t->Validate().ok());
}

TEST(DynamicTableTest, SingleInsertFindErase) {
  auto t = MakeTable();
  EXPECT_TRUE(t->Insert(42, 99).ok());
  uint32_t v = 0;
  EXPECT_TRUE(t->Find(42, &v));
  EXPECT_EQ(v, 99u);
  EXPECT_EQ(t->size(), 1u);
  EXPECT_TRUE(t->Erase(42));
  EXPECT_FALSE(t->Find(42));
  EXPECT_EQ(t->size(), 0u);
}

TEST(DynamicTableTest, InsertIsUpsert) {
  auto t = MakeTable();
  EXPECT_TRUE(t->Insert(7, 1).ok());
  EXPECT_TRUE(t->Insert(7, 2).ok());
  uint32_t v = 0;
  EXPECT_TRUE(t->Find(7, &v));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(t->size(), 1u);
  EXPECT_TRUE(t->Validate().ok()) << "upsert must not duplicate the key";
}

TEST(DynamicTableTest, RepeatedUpsertsAcrossBatchesNeverDuplicate) {
  auto t = MakeTable();
  auto keys = UniqueKeys(5000);
  for (int round = 0; round < 5; ++round) {
    auto values = SequentialValues(keys.size(), round * 100000);
    ASSERT_TRUE(t->BulkInsert(keys, values).ok());
    ASSERT_EQ(t->size(), keys.size()) << "round " << round;
    ASSERT_TRUE(t->Validate().ok()) << "round " << round;
  }
  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], 400000 + i);  // last round's values
  }
}

TEST(DynamicTableTest, BulkInsertFindAllPresent) {
  auto t = MakeTable();
  auto keys = UniqueKeys(50000);
  auto values = SequentialValues(keys.size());
  ASSERT_TRUE(t->BulkInsert(keys, values).ok());
  EXPECT_EQ(t->size(), keys.size());

  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]) << "key index " << i;
    ASSERT_EQ(out[i], values[i]);
  }
}

TEST(DynamicTableTest, FindMissesForAbsentKeys) {
  auto t = MakeTable();
  auto keys = UniqueKeys(10000, /*seed=*/1);
  auto absent = UniqueKeys(10000, /*seed=*/2);
  // Remove accidental overlaps from the probe set.
  std::vector<uint32_t> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> probes;
  for (uint32_t k : absent) {
    if (!std::binary_search(sorted.begin(), sorted.end(), k)) {
      probes.push_back(k);
    }
  }
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::vector<uint8_t> found(probes.size(), 2);
  t->BulkFind(probes, nullptr, found.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(found[i], 0) << "phantom key at " << i;
  }
}

TEST(DynamicTableTest, BulkEraseRemovesExactlyRequested) {
  auto t = MakeTable();
  auto keys = UniqueKeys(20000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());

  std::vector<uint32_t> victims(keys.begin(), keys.begin() + 10000);
  uint64_t erased = 0;
  ASSERT_TRUE(t->BulkErase(victims, &erased).ok());
  EXPECT_EQ(erased, victims.size());
  EXPECT_EQ(t->size(), keys.size() - victims.size());

  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, nullptr, found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(found[i] != 0, i >= 10000) << "index " << i;
  }
  EXPECT_TRUE(t->Validate().ok());
}

TEST(DynamicTableTest, EraseMissingKeysCountsZero) {
  auto t = MakeTable();
  ASSERT_TRUE(t->Insert(1, 1).ok());
  std::vector<uint32_t> missing = {2, 3, 4};
  uint64_t erased = 7;
  ASSERT_TRUE(t->BulkErase(missing, &erased).ok());
  EXPECT_EQ(erased, 0u);
  EXPECT_EQ(t->size(), 1u);
}

TEST(DynamicTableTest, DoubleEraseIsIdempotent) {
  auto t = MakeTable();
  ASSERT_TRUE(t->Insert(5, 6).ok());
  EXPECT_TRUE(t->Erase(5));
  EXPECT_FALSE(t->Erase(5));
  EXPECT_EQ(t->size(), 0u);
}

TEST(DynamicTableTest, ReservedSentinelKeyRejected) {
  auto t = MakeTable();
  std::vector<uint32_t> keys = {1, 0xffffffffu, 3};
  std::vector<uint32_t> values = {1, 2, 3};
  Status st = t->BulkInsert(keys, values);
  EXPECT_TRUE(st.IsInvalidArgument());
  // The valid keys in the batch still landed.
  EXPECT_TRUE(t->Find(1));
  EXPECT_TRUE(t->Find(3));
  EXPECT_EQ(t->size(), 2u);
}

TEST(DynamicTableTest, MismatchedSpansRejected) {
  auto t = MakeTable();
  std::vector<uint32_t> keys = {1, 2};
  std::vector<uint32_t> values = {1};
  EXPECT_TRUE(t->BulkInsert(keys, values).IsInvalidArgument());
}

TEST(DynamicTableTest, EmptyBatchesAreNoops) {
  auto t = MakeTable();
  EXPECT_TRUE(t->BulkInsert({}, {}).ok());
  EXPECT_TRUE(t->BulkErase({}).ok());
  t->BulkFind({}, nullptr, nullptr);
  EXPECT_EQ(t->size(), 0u);
}

TEST(DynamicTableTest, ZeroIsAValidKeyAndValue) {
  auto t = MakeTable();
  ASSERT_TRUE(t->Insert(0, 0).ok());
  uint32_t v = 99;
  EXPECT_TRUE(t->Find(0, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(t->Erase(0));
}

TEST(DynamicTableTest, ModelBasedRandomOperations) {
  // Differential test against std::unordered_map over randomized batched
  // insert/find/erase traffic with key reuse.  Updates of resident keys and
  // inserts of new keys go in separate batches, the pattern under which the
  // batch semantics are fully deterministic (see BulkInsert's doc comment).
  auto t = MakeTable();
  ReferenceModel model;
  SplitMix64 rng(2024);
  std::vector<uint32_t> universe = UniqueKeys(8000, 77);

  for (int round = 0; round < 30; ++round) {
    // Pick a random slice with fresh values (unique keys per batch), split
    // into new-key and resident-key sub-batches.
    std::vector<uint32_t> nk, nv, uk, uv;
    std::vector<uint8_t> used(universe.size(), 0);
    uint64_t inserts = 200 + rng.NextBounded(800);
    for (uint64_t i = 0; i < inserts; ++i) {
      uint64_t pick = rng.NextBounded(universe.size());
      if (used[pick]) continue;
      used[pick] = 1;
      uint32_t k = universe[pick];
      uint32_t v = static_cast<uint32_t>(rng.Next());
      if (model.Find(k, nullptr)) {
        uk.push_back(k);
        uv.push_back(v);
      } else {
        nk.push_back(k);
        nv.push_back(v);
      }
      model.Insert(k, v);
    }
    ASSERT_TRUE(t->BulkInsert(nk, nv).ok());
    ASSERT_TRUE(t->BulkInsert(uk, uv).ok());

    // Erase a random slice (unique keys per batch).
    std::fill(used.begin(), used.end(), 0);
    std::vector<uint32_t> ek;
    uint64_t erases = rng.NextBounded(400);
    for (uint64_t i = 0; i < erases; ++i) {
      uint64_t pick = rng.NextBounded(universe.size());
      if (used[pick]) continue;
      used[pick] = 1;
      ek.push_back(universe[pick]);
      model.Erase(universe[pick]);
    }
    ASSERT_TRUE(t->BulkErase(ek).ok());

    ASSERT_EQ(t->size(), model.size()) << "round " << round;
    ASSERT_TRUE(t->Validate().ok()) << "round " << round;
  }

  // Full sweep: every universe key agrees with the model.
  std::vector<uint32_t> out(universe.size());
  std::vector<uint8_t> found(universe.size());
  t->BulkFind(universe, out.data(), found.data());
  for (size_t i = 0; i < universe.size(); ++i) {
    uint32_t expect_v = 0;
    bool expect_hit = model.Find(universe[i], &expect_v);
    ASSERT_EQ(found[i] != 0, expect_hit) << "key " << universe[i];
    if (expect_hit) {
      ASSERT_EQ(out[i], expect_v);
    }
  }
}

TEST(DynamicTableTest, DumpMatchesContents) {
  auto t = MakeTable();
  auto keys = UniqueKeys(1000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  auto dump = t->Dump();
  EXPECT_EQ(dump.size(), keys.size());
  ReferenceModel model;
  for (size_t i = 0; i < keys.size(); ++i) model.Insert(keys[i], i);
  for (const auto& [k, v] : dump) {
    uint32_t mv = 0;
    ASSERT_TRUE(model.Find(k, &mv));
    ASSERT_EQ(v, mv);
  }
}

TEST(DynamicTableTest, StatsAccounting) {
  auto t = MakeTable();
  auto keys = UniqueKeys(10000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, nullptr, found.data());
  uint64_t erased = 0;
  ASSERT_TRUE(t->BulkErase(keys, &erased).ok());

  auto s = t->stats().Capture();
  EXPECT_EQ(s.inserts_new, keys.size());
  EXPECT_EQ(s.inserts_updated, keys.size());
  EXPECT_EQ(s.finds, keys.size());
  EXPECT_EQ(s.find_hits, keys.size());
  EXPECT_EQ(s.erases, keys.size());
  EXPECT_EQ(s.erase_hits, keys.size());
  EXPECT_EQ(s.insert_failures, 0u);
}

TEST(DynamicTableTest, StaticModeReportsFailuresInsteadOfGrowing) {
  DyCuckooOptions o;
  o.auto_resize = false;
  o.initial_capacity = 1024;
  o.max_eviction_chain = 16;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(4000);  // ~4x the capacity
  uint64_t failed = 0;
  Status st = t->BulkInsert(keys, SequentialValues(keys.size()), &failed);
  EXPECT_TRUE(st.IsInsertionFailure());
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(t->capacity_slots(), 1024u);  // did not grow
  EXPECT_LE(t->size(), 1024u);
}

TEST(DynamicTableTest, SubtableIntrospection) {
  DyCuckooOptions o;
  o.num_subtables = 3;
  o.initial_capacity = 3 * 32 * 8;
  auto t = MakeTable(o);
  EXPECT_EQ(t->num_subtables(), 3);
  uint64_t total = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t->subtable_slots(i), t->subtable_buckets(i) * 32);
    total += t->subtable_slots(i);
  }
  EXPECT_EQ(total, t->capacity_slots());
  EXPECT_GT(t->memory_bytes(), 0u);
}

TEST(DynamicTableTest, InitialCapacityLadderGranularity) {
  // Init picks a mixed {n, 2n} ladder configuration, so the allocated
  // capacity overshoots the hint by at most 25% (not the 2x of naive
  // power-of-two rounding).
  for (uint64_t hint : {1000ull, 5000ull, 20000ull, 77777ull, 300000ull}) {
    DyCuckooOptions o;
    o.initial_capacity = hint;
    auto t = MakeTable(o);
    EXPECT_GE(t->capacity_slots(), hint);
    EXPECT_LE(static_cast<double>(t->capacity_slots()),
              1.25 * static_cast<double>(hint) + 4 * 32)
        << "hint " << hint;
    EXPECT_TRUE(t->Validate().ok());
  }
}

TEST(DynamicTableTest, ClearEmptiesEverything) {
  auto t = MakeTable();
  auto keys = UniqueKeys(15000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  t->Clear();
  EXPECT_EQ(t->size(), 0u);
  EXPECT_TRUE(t->Validate().ok());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, nullptr, found.data());
  for (auto f : found) EXPECT_EQ(f, 0);
  // Still usable.
  ASSERT_TRUE(t->Insert(1, 2).ok());
  EXPECT_TRUE(t->Find(1));
}

TEST(DynamicTableTest, ForEachVisitsEveryPairOnce) {
  auto t = MakeTable();
  auto keys = UniqueKeys(8000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  ReferenceModel model;
  for (size_t i = 0; i < keys.size(); ++i) model.Insert(keys[i], i);

  uint64_t visited = 0;
  t->ForEach([&](uint32_t k, uint32_t v) {
    uint32_t mv = 0;
    ASSERT_TRUE(model.Find(k, &mv)) << k;
    ASSERT_EQ(v, mv);
    ++visited;
  });
  EXPECT_EQ(visited, keys.size());
}

TEST(DynamicTableTest, ReservePreallocatesForIngest) {
  DyCuckooOptions o;
  o.initial_capacity = 1024;
  auto t = MakeTable(o);
  ASSERT_TRUE(t->Reserve(100000).ok());
  uint64_t cap = t->capacity_slots();
  EXPECT_GE(cap * o.upper_bound, 100000.0);
  uint64_t upsizes_before = t->stats().upsizes.load();
  auto keys = UniqueKeys(100000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_EQ(t->stats().upsizes.load(), upsizes_before)
      << "reserved ingest must not resize";
  EXPECT_EQ(t->capacity_slots(), cap);
}

TEST(DynamicTableTest, SeparateArenasIsolateAccounting) {
  gpusim::DeviceArena a(64 << 20), b(64 << 20);
  DyCuckooOptions oa;
  oa.arena = &a;
  oa.initial_capacity = 1024;  // must grow to hold the batch
  DyCuckooOptions ob;
  ob.arena = &b;
  ob.initial_capacity = 1024;
  auto ta = MakeTable(oa);
  auto tb = MakeTable(ob);
  auto keys = UniqueKeys(20000);
  ASSERT_TRUE(ta->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_GT(a.used_bytes(), b.used_bytes());
  EXPECT_EQ(a.used_bytes(), ta->memory_bytes());
  EXPECT_EQ(b.used_bytes(), tb->memory_bytes());
}

TEST(DynamicTableTest, SixtyFourBitTable) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap64> t;
  ASSERT_TRUE(DyCuckooMap64::Create(o, &t).ok());
  std::vector<uint64_t> keys(20000), values(20000);
  SplitMix64 rng(5);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.Next() & ~uint64_t{0} >> 1;
    values[i] = i;
  }
  ASSERT_TRUE(t->BulkInsert(keys, values).ok());
  std::vector<uint64_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], values[i]);
  }
  EXPECT_TRUE(t->Validate().ok());
}

// Batches that insert every key twice store each key once.  A key's two
// copies sit in adjacent lanes of one warp, so the other workers' inserts
// move the balance weights between the two lanes' prepare steps; both
// lanes must still target the same bucket, where the lock and the match
// slot collapse them.  Small, fresh tables make those moves large.
TEST(DynamicTableTest, KeysInsertedTwiceInOneBatchAreStoredOnce) {
  constexpr int kTables = 40;
  constexpr int kRounds = 8;
  constexpr size_t kKeysPerRound = 2048;
  gpusim::Grid grid(3);
  DyCuckooOptions o;
  o.grid = &grid;
  o.initial_capacity = 2048;
  const auto universe = UniqueKeys(kRounds * kKeysPerRound, 5);
  for (int table = 0; table < kTables; ++table) {
    o.seed = table;
    auto t = MakeTable(o);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("table " + std::to_string(table) + " round " +
                   std::to_string(round));
      std::vector<uint32_t> keys;
      std::vector<uint32_t> values;
      std::vector<DyCuckooMap::MixedOp> ops;
      for (size_t i = 0; i < kKeysPerRound; ++i) {
        const uint32_t k = universe[round * kKeysPerRound + i];
        for (uint32_t copy = 0; copy < 2; ++copy) {
          keys.push_back(k);
          values.push_back(2 * static_cast<uint32_t>(i) + copy);
          DyCuckooMap::MixedOp op;
          op.type = DyCuckooMap::MixedOp::Type::kInsert;
          op.key = k;
          op.value = values.back();
          ops.push_back(op);
        }
      }
      if (round % 2 == 0) {
        ASSERT_TRUE(t->BulkInsert(keys, values).ok());
      } else {
        ASSERT_TRUE(t->BulkExecute(ops).ok());
      }
      ASSERT_EQ(t->size(), (round + 1) * kKeysPerRound);
      const Status valid = t->Validate();
      ASSERT_TRUE(valid.ok()) << valid.ToString();
    }
  }
}

class DynamicTableSubtableCountTest : public ::testing::TestWithParam<int> {};

TEST_P(DynamicTableSubtableCountTest, CorrectAcrossSubtableCounts) {
  DyCuckooOptions o;
  o.num_subtables = GetParam();
  auto t = MakeTable(o);
  auto keys = UniqueKeys(30000, GetParam());
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_EQ(t->size(), keys.size());
  EXPECT_TRUE(t->Validate().ok());

  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], i);
  }
  uint64_t erased = 0;
  ASSERT_TRUE(t->BulkErase(keys, &erased).ok());
  EXPECT_EQ(erased, keys.size());
  EXPECT_TRUE(t->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(SubtableCounts, DynamicTableSubtableCountTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

}  // namespace
}  // namespace dycuckoo
