// Device-memory exhaustion paths: tables must fail with OutOfMemory (not
// crash or corrupt) when the arena runs dry, and leave prior contents
// intact.

#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/cudpp_cuckoo.h"
#include "baselines/megakv.h"
#include "dycuckoo/dycuckoo.h"
#include "gpusim/device_arena.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::SequentialValues;
using testing::UniqueKeys;

TEST(OomTest, CreateFailsCleanlyInTinyArena) {
  gpusim::DeviceArena arena(1024);  // far too small
  DyCuckooOptions o;
  o.initial_capacity = 1 << 20;
  o.arena = &arena;
  std::unique_ptr<DyCuckooMap> t;
  Status st = DyCuckooMap::Create(o, &t);
  EXPECT_TRUE(st.IsOutOfMemory()) << st.ToString();
  EXPECT_EQ(arena.used_bytes(), 0u) << "partial construction must roll back";
}

/// The two write entry points, BulkInsert and an all-insert BulkExecute,
/// must both run a batch degraded when the arena cannot grow.
enum class WritePath { kBulkInsert, kBulkExecute };

class OomGrowthTest : public ::testing::TestWithParam<WritePath> {
 protected:
  Status Write(DyCuckooMap* t, std::span<const uint32_t> keys,
               std::span<const uint32_t> values) {
    if (GetParam() == WritePath::kBulkInsert) {
      return t->BulkInsert(keys, values);
    }
    std::vector<DyCuckooMap::MixedOp> ops(keys.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i].type = DyCuckooMap::MixedOp::Type::kInsert;
      ops[i].key = keys[i];
      ops[i].value = values[i];
    }
    return t->BulkExecute(ops);
  }
};

TEST_P(OomGrowthTest, GrowthStopsWithOutOfMemoryAndTableStaysConsistent) {
  gpusim::DeviceArena arena(1 << 20);  // 1 MiB: a few growth steps only
  DyCuckooOptions o;
  o.initial_capacity = 1024;
  o.arena = &arena;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());

  auto keys = UniqueKeys(400000, 3);
  auto values = SequentialValues(keys.size());
  Status st;
  size_t inserted_until = 0;
  for (size_t off = 0; off < keys.size(); off += 10000) {
    size_t len = std::min<size_t>(10000, keys.size() - off);
    st = Write(t.get(), std::span<const uint32_t>(keys.data() + off, len),
               std::span<const uint32_t>(values.data() + off, len));
    if (!st.ok()) break;
    inserted_until = off + len;
  }
  EXPECT_TRUE(st.IsOutOfMemory() || st.IsInsertionFailure())
      << st.ToString();
  ASSERT_GT(inserted_until, 0u);
  EXPECT_TRUE(t->Validate().ok()) << "OOM must not corrupt the table";

  // Everything inserted before the failure is still there.
  std::vector<uint32_t> probe(keys.begin(), keys.begin() + inserted_until);
  std::vector<uint32_t> out(probe.size());
  std::vector<uint8_t> found(probe.size());
  t->BulkFind(probe, out.data(), found.data());
  for (size_t i = 0; i < probe.size(); ++i) {
    ASSERT_TRUE(found[i]) << i;
    ASSERT_EQ(out[i], values[i]);
  }

  // The failing batch ran degraded (at current capacity) rather than being
  // aborted outright; the table records that it wanted more memory.
  EXPECT_GT(t->stats().Capture().degraded_batches, 0u);

  // Deleting makes room again: the table recovers.  Erase every attempted
  // key — the degraded batch legitimately stored part of itself.
  size_t attempted_until = std::min(keys.size(), inserted_until + 10000);
  std::vector<uint32_t> attempted(keys.begin(), keys.begin() + attempted_until);
  ASSERT_TRUE(t->BulkErase(attempted).ok());
  EXPECT_EQ(t->size(), 0u);
  ASSERT_TRUE(t->Insert(1, 2).ok());
}

INSTANTIATE_TEST_SUITE_P(
    WritePaths, OomGrowthTest,
    ::testing::Values(WritePath::kBulkInsert, WritePath::kBulkExecute),
    [](const ::testing::TestParamInfo<WritePath>& info) {
      return info.param == WritePath::kBulkInsert ? "BulkInsert"
                                                  : "BulkExecute";
    });

TEST(OomTest, MegaKvRehashOomRestoresOldTable) {
  gpusim::DeviceArena arena(600 * 1024);
  MegaKvOptions o;
  o.initial_capacity = 1024;
  o.arena = &arena;
  std::unique_ptr<MegaKvTable> t;
  ASSERT_TRUE(MegaKvTable::Create(o, &t).ok());
  auto keys = UniqueKeys(200000, 5);
  Status st;
  size_t inserted_until = 0;
  for (size_t off = 0; off < keys.size(); off += 5000) {
    size_t len = std::min<size_t>(5000, keys.size() - off);
    std::vector<uint32_t> ck(keys.begin() + off, keys.begin() + off + len);
    st = t->BulkInsert(ck, SequentialValues(len));
    if (!st.ok()) break;
    inserted_until = off + len;
  }
  EXPECT_FALSE(st.ok());
  ASSERT_GT(inserted_until, 0u);
  // The failed rehash restored the old table exactly (storage, seeds and
  // size counter) and parked any displaced residents, so every key from a
  // completed batch is still answerable — not just "most".
  EXPECT_GE(t->rehash_rollbacks(), 1u);
  std::vector<uint32_t> probe(keys.begin(),
                              keys.begin() + inserted_until);
  std::vector<uint8_t> found(probe.size());
  t->BulkFind(probe, nullptr, found.data());
  uint64_t hits = 0;
  for (auto f : found) hits += f;
  EXPECT_EQ(hits, probe.size());
}

TEST(OomTest, CudppCreateFailsCleanly) {
  gpusim::DeviceArena arena(1024);
  CudppOptions o;
  o.capacity_slots = 1 << 20;
  o.arena = &arena;
  std::unique_ptr<CudppCuckooTable> t;
  EXPECT_TRUE(CudppCuckooTable::Create(o, &t).IsOutOfMemory());
}

}  // namespace
}  // namespace dycuckoo
