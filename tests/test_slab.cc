#include "baselines/slab_hash.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::ReferenceModel;
using testing::SequentialValues;
using testing::UniqueKeys;

std::unique_ptr<SlabHashTable> MakeTable(SlabHashOptions o = {}) {
  std::unique_ptr<SlabHashTable> t;
  Status st = SlabHashTable::Create(o, &t);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return t;
}

TEST(SlabTest, OptionsValidation) {
  SlabHashOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.initial_capacity = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = SlabHashOptions{};
  o.pool_reserve_factor = 0.5;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(SlabTest, InsertFindRoundTrip) {
  auto t = MakeTable();
  auto keys = UniqueKeys(50000);
  auto values = SequentialValues(keys.size());
  ASSERT_TRUE(t->BulkInsert(keys, values).ok());
  EXPECT_EQ(t->size(), keys.size());
  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], values[i]);
  }
}

TEST(SlabTest, UpsertOverwritesValue) {
  auto t = MakeTable();
  std::vector<uint32_t> k = {77};
  ASSERT_TRUE(t->BulkInsert(k, std::vector<uint32_t>{1}).ok());
  ASSERT_TRUE(t->BulkInsert(k, std::vector<uint32_t>{2}).ok());
  std::vector<uint32_t> out(1);
  std::vector<uint8_t> found(1);
  t->BulkFind(k, out.data(), found.data());
  EXPECT_TRUE(found[0]);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(t->size(), 1u);
}

TEST(SlabTest, DeleteIsSymbolic) {
  auto t = MakeTable();
  auto keys = UniqueKeys(30000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  uint64_t memory_full = t->memory_bytes();

  uint64_t erased = 0;
  ASSERT_TRUE(t->BulkErase(keys, &erased).ok());
  EXPECT_EQ(erased, keys.size());
  EXPECT_EQ(t->size(), 0u);
  EXPECT_EQ(t->tombstones(), keys.size());
  // The defining trait: deletion frees no memory at all.
  EXPECT_EQ(t->memory_bytes(), memory_full);
  EXPECT_LT(t->filled_factor(), 0.01);

  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, nullptr, found.data());
  for (auto f : found) EXPECT_EQ(f, 0);
}

TEST(SlabTest, InsertsRecycleTombstones) {
  auto t = MakeTable();
  auto keys = UniqueKeys(20000, 1);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  ASSERT_TRUE(t->BulkErase(keys).ok());
  uint64_t slabs_after_delete = t->allocated_slabs();
  uint64_t tombs = t->tombstones();
  ASSERT_EQ(tombs, keys.size());

  // Fresh keys reuse the tombstoned slots instead of allocating new slabs —
  // this is why SlabHash *speeds up* under delete-heavy workloads (Fig 10).
  auto fresh = UniqueKeys(15000, 2);
  ASSERT_TRUE(t->BulkInsert(fresh, SequentialValues(fresh.size())).ok());
  EXPECT_LT(t->tombstones(), tombs);
  EXPECT_EQ(t->allocated_slabs(), slabs_after_delete);
}

TEST(SlabTest, PoolGrowsButNeverShrinks) {
  SlabHashOptions o;
  o.initial_capacity = 4096;
  auto t = MakeTable(o);
  uint64_t reserve0 = t->reserved_slabs();
  auto keys = UniqueKeys(200000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  uint64_t reserve1 = t->reserved_slabs();
  EXPECT_GT(reserve1, reserve0);
  ASSERT_TRUE(t->BulkErase(keys).ok());
  EXPECT_EQ(t->reserved_slabs(), reserve1) << "pool never returns memory";
}

TEST(SlabTest, ChainsGrowWithSustainedInsertion) {
  SlabHashOptions o;
  o.initial_capacity = 4096;
  auto t = MakeTable(o);
  auto small = UniqueKeys(4000, 5);
  ASSERT_TRUE(t->BulkInsert(small, SequentialValues(small.size())).ok());
  double chain_small = t->AverageChainLength();
  auto big = UniqueKeys(150000, 6);
  ASSERT_TRUE(t->BulkInsert(big, SequentialValues(big.size())).ok());
  double chain_big = t->AverageChainLength();
  EXPECT_GT(chain_big, 2.0 * chain_small)
      << "fixed bucket range must grow chains (paper Figure 12 argument)";
  EXPECT_GT(t->MaxChainLength(), 1u);
}

TEST(SlabTest, ReservedKeysRejected) {
  auto t = MakeTable();
  std::vector<uint32_t> keys = {0xffffffffu, 0xfffffffeu};
  std::vector<uint32_t> values = {1, 2};
  EXPECT_TRUE(t->BulkInsert(keys, values).IsInvalidArgument());
  EXPECT_EQ(t->size(), 0u);
}

TEST(SlabTest, ModelBasedChurn) {
  auto t = MakeTable();
  ReferenceModel model;
  SplitMix64 rng(66);
  auto universe = UniqueKeys(4000, 8);
  for (int round = 0; round < 15; ++round) {
    std::vector<uint32_t> ik, iv, ek;
    std::vector<uint8_t> used(universe.size(), 0);
    for (int i = 0; i < 500; ++i) {
      uint64_t p = rng.NextBounded(universe.size());
      if (used[p]) continue;
      used[p] = 1;
      uint32_t v = static_cast<uint32_t>(rng.Next());
      ik.push_back(universe[p]);
      iv.push_back(v);
      model.Insert(universe[p], v);
    }
    ASSERT_TRUE(t->BulkInsert(ik, iv).ok());
    std::fill(used.begin(), used.end(), 0);
    for (int i = 0; i < 250; ++i) {
      uint64_t p = rng.NextBounded(universe.size());
      if (used[p]) continue;
      used[p] = 1;
      ek.push_back(universe[p]);
      model.Erase(universe[p]);
    }
    ASSERT_TRUE(t->BulkErase(ek).ok());
    ASSERT_EQ(t->size(), model.size()) << "round " << round;
  }
  std::vector<uint32_t> out(universe.size());
  std::vector<uint8_t> found(universe.size());
  t->BulkFind(universe, out.data(), found.data());
  for (size_t i = 0; i < universe.size(); ++i) {
    uint32_t mv = 0;
    bool hit = model.Find(universe[i], &mv);
    ASSERT_EQ(found[i] != 0, hit) << universe[i];
    if (hit) {
      ASSERT_EQ(out[i], mv);
    }
  }
}

TEST(SlabTest, FindMissOnLongChainScansWholeChain) {
  SlabHashOptions o;
  o.initial_capacity = 64;  // few buckets, long chains
  auto t = MakeTable(o);
  auto keys = UniqueKeys(5000, 9);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_GT(t->AverageChainLength(), 3.0);
  // Misses still resolve (return not-found) on every bucket.
  auto misses = UniqueKeys(500, 10);
  std::vector<uint32_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint8_t> found(misses.size(), 1);
  std::vector<uint32_t> probes;
  for (auto k : misses) {
    if (!std::binary_search(sorted.begin(), sorted.end(), k)) {
      probes.push_back(k);
    }
  }
  found.resize(probes.size());
  t->BulkFind(probes, nullptr, found.data());
  for (auto f : found) EXPECT_EQ(f, 0);
}

TEST(SlabTest, ConcurrentPoolGrowthStress) {
  // Many warps extending chains at once exercises the superblock-growth
  // path and the leaked-slab CAS-loser path.
  SlabHashOptions o;
  o.initial_capacity = 256;
  o.pool_reserve_factor = 1.0;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(120000, 21);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_EQ(t->size(), keys.size());
  EXPECT_GT(t->reserved_slabs(), 256u / 15);
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, nullptr, found.data());
  for (auto f : found) ASSERT_TRUE(f);
}

TEST(SlabTest, NameAndTraits) {
  auto t = MakeTable();
  EXPECT_EQ(t->name(), "SlabHash");
  EXPECT_TRUE(t->supports_erase());
  EXPECT_GT(t->memory_bytes(), 0u);
  EXPECT_GT(t->num_buckets(), 0u);
}

}  // namespace
}  // namespace dycuckoo
