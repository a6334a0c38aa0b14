#include "gpusim/sim_counters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "dycuckoo/dycuckoo.h"
#include "gpusim/grid.h"
#include "test_util.h"

namespace dycuckoo {
namespace gpusim {
namespace {

using testing::SequentialValues;
using testing::UniqueKeys;

TEST(SimCountersTest, ResetZeroesEverything) {
  auto& local = SimCounters::Local();
  local.atomic_cas.fetch_add(5);
  local.bucket_reads.fetch_add(7);
  SimCounters::Get().Reset();
  auto snap = SimCounters::Get().Capture();
  EXPECT_EQ(snap.atomic_cas, 0u);
  EXPECT_EQ(snap.bucket_reads, 0u);
  EXPECT_EQ(snap.evictions, 0u);
}

TEST(SimCountersTest, HelpersIncrementTheRightCounter) {
  auto& c = SimCounters::Get();
  c.Reset();
  CountBucketRead();
  CountBucketRead();
  CountBucketWrite();
  CountEviction();
  CountLockConflict();
  CountChainNode();
  CountCas(/*won=*/true);
  CountCas(/*won=*/false);
  CountExch();
  auto snap = c.Capture();
  EXPECT_EQ(snap.bucket_reads, 2u);
  EXPECT_EQ(snap.bucket_writes, 1u);
  EXPECT_EQ(snap.evictions, 1u);
  EXPECT_EQ(snap.lock_conflicts, 1u);
  EXPECT_EQ(snap.chain_nodes_visited, 1u);
  EXPECT_EQ(snap.atomic_cas, 2u);
  EXPECT_EQ(snap.atomic_cas_failed, 1u);
  EXPECT_EQ(snap.atomic_exch, 1u);
}

TEST(SimCountersTest, SnapshotDiff) {
  auto& c = SimCounters::Get();
  c.Reset();
  CountBucketRead();
  auto before = c.Capture();
  CountBucketRead();
  CountBucketRead();
  CountEviction();
  auto delta = c.Capture() - before;
  EXPECT_EQ(delta.bucket_reads, 2u);
  EXPECT_EQ(delta.evictions, 1u);
  EXPECT_EQ(delta.bucket_writes, 0u);
}

TEST(SimCountersTest, SnapshotSum) {
  SimCounters::Snapshot a;
  SimCounters::Snapshot b;
  a.bucket_reads = 3;
  a.evictions = 1;
  b.bucket_reads = 4;
  b.racecheck_findings = 2;
  a += b;
  EXPECT_EQ(a.bucket_reads, 7u);
  EXPECT_EQ(a.evictions, 1u);
  EXPECT_EQ(a.racecheck_findings, 2u);
  EXPECT_EQ(a.atomic_cas, 0u);
}

TEST(SimCountersTest, ToStringMentionsFields) {
  auto& c = SimCounters::Get();
  c.Reset();
  CountEviction();
  std::string s = c.Capture().ToString();
  EXPECT_NE(s.find("evictions=1"), std::string::npos) << s;
  // Every field prints under its member name, in declaration order.
  size_t last = 0;
  for (const char* name :
       {"atomic_cas=", "atomic_cas_failed=", "atomic_exch=", "bucket_reads=",
        "bucket_writes=", "evictions=", "lock_conflicts=",
        "chain_nodes_visited=", "racecheck_findings="}) {
    const size_t at = s.find(name, last);
    ASSERT_NE(at, std::string::npos) << name << " in " << s;
    last = at;
  }
}

TEST(SimCountersTest, OneWordPerCounterPaddedToCacheLines) {
  // A block holds its nine counters and nothing else; the rest is padding
  // up to a whole number of cache lines, so no two threads' blocks share
  // a line.
  constexpr size_t kLine = 64;
  EXPECT_EQ(sizeof(SimCounters::Snapshot), 9 * sizeof(uint64_t));
  EXPECT_EQ(alignof(SimCounters), kLine);
  EXPECT_EQ(sizeof(SimCounters),
            (sizeof(SimCounters::Snapshot) + kLine - 1) / kLine * kLine);
}

TEST(SimCountersTest, OneViewAndOneBlockPerThread) {
  EXPECT_EQ(&SimCounters::Get(), &SimCounters::Get());
  SimCounters* mine = &SimCounters::Local();
  EXPECT_EQ(mine, &SimCounters::Local());
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<SimCounters*> theirs;
  std::thread other([&] {
    theirs.set_value(&SimCounters::Local());
    released.wait();
  });
  // Both threads are alive, so neither block can be the other's.
  EXPECT_NE(theirs.get_future().get(), mine);
  release.set_value();
  other.join();
}

TEST(SimCountersTest, CaptureSumsEveryThreadExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kEvents = 100000;
  const auto before = SimCounters::Get().Capture();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (uint64_t e = 0; e < kEvents; ++e) {
        CountBucketRead();
        CountCas(/*won=*/(e & 1) == 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto delta = SimCounters::Get().Capture() - before;
  EXPECT_EQ(delta.bucket_reads, kThreads * kEvents);
  EXPECT_EQ(delta.atomic_cas, kThreads * kEvents);
  EXPECT_EQ(delta.atomic_cas_failed, kThreads * kEvents / 2);
}

TEST(SimCountersTest, CountsSurviveThreadExitAndTheBlockIsReused) {
  const auto before = SimCounters::Get().Capture();
  SimCounters* first = nullptr;
  uint64_t first_evictions = 0;
  std::thread([&] {
    for (int i = 0; i < 5; ++i) CountEviction();
    first = &SimCounters::Local();
    first_evictions = first->evictions.load();
  }).join();
  EXPECT_EQ((SimCounters::Get().Capture() - before).evictions, 5u);

  // The next new thread takes the exited thread's block over, counts
  // intact, and keeps adding to it.
  SimCounters* second = nullptr;
  uint64_t inherited = 0;
  std::thread([&] {
    second = &SimCounters::Local();
    inherited = second->evictions.load();
    CountEviction();
  }).join();
  EXPECT_EQ(second, first);
  EXPECT_EQ(inherited, first_evictions);
  EXPECT_EQ((SimCounters::Get().Capture() - before).evictions, 6u);
}

TEST(SimCountersTest, ResetZeroesTheBlockOfALiveIdleThread) {
  std::promise<void> counted;
  std::promise<void> reset_done;
  std::thread worker([&] {
    CountBucketWrite();
    CountBucketWrite();
    counted.set_value();
    reset_done.get_future().wait();  // idle while the host resets
    CountBucketWrite();
  });
  counted.get_future().wait();
  SimCounters::Get().Reset();
  EXPECT_EQ(SimCounters::Get().Capture().bucket_writes, 0u);
  reset_done.set_value();
  worker.join();
  EXPECT_EQ(SimCounters::Get().Capture().bucket_writes, 1u);
}

// The counters of a single-worker run are a pure function of the
// workload, so their whole digest is pinned.  Inserts go in one-warp
// batches, so every lane's placement weights are the table's state at the
// start of its launch whether they are frozen per launch or read live.
TEST(SimCountersDigestTest, SingleWorkerInsertFindEraseIsPinned) {
  Grid grid(1);
  DyCuckooOptions o;
  o.grid = &grid;
  o.initial_capacity = 4096;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  const auto keys = UniqueKeys(20000, 7);
  const auto values = SequentialValues(keys.size());
  const std::span<const uint32_t> all_keys(keys);
  const std::span<const uint32_t> all_values(values);

  const auto before = SimCounters::Get().Capture();
  for (size_t i = 0; i < keys.size(); i += kWarpSize) {
    const size_t n = std::min<size_t>(kWarpSize, keys.size() - i);
    ASSERT_TRUE(
        t->BulkInsert(all_keys.subspan(i, n), all_values.subspan(i, n)).ok());
  }
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, nullptr, found.data());
  ASSERT_TRUE(t->BulkErase(all_keys.first(keys.size() / 2)).ok());
  t->BulkFind(keys, nullptr, found.data());
  const auto delta = SimCounters::Get().Capture() - before;

  EXPECT_EQ(t->size(), keys.size() - keys.size() / 2);
  EXPECT_EQ(delta.ToString(),
            "atomic_cas=47375 atomic_cas_failed=0 atomic_exch=70425 "
            "bucket_reads=141639 bucket_writes=25073 evictions=3475 "
            "lock_conflicts=0 chain_nodes_visited=0 racecheck_findings=0");
}

// With three workers the sum over their blocks is exact once the launch
// joins: a miss reads both candidate buckets, and repeated finds of
// resident keys read the same buckets every time.
TEST(SimCountersDigestTest, MultiWorkerFindCountsAreExact) {
  Grid grid(3);
  DyCuckooOptions o;
  o.grid = &grid;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  const auto keys = UniqueKeys(30000, 11);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  const std::unordered_set<uint32_t> resident(keys.begin(), keys.end());
  auto misses = UniqueKeys(20000, 12);
  std::erase_if(misses, [&](uint32_t k) { return resident.count(k) != 0; });

  std::vector<uint8_t> found(keys.size() + misses.size());
  auto before = SimCounters::Get().Capture();
  t->BulkFind(misses, nullptr, found.data());
  auto delta = SimCounters::Get().Capture() - before;
  EXPECT_EQ(delta.bucket_reads, 2 * misses.size());

  uint64_t first_reads = 0;
  for (int rep = 0; rep < 5; ++rep) {
    before = SimCounters::Get().Capture();
    t->BulkFind(keys, nullptr, found.data());
    delta = SimCounters::Get().Capture() - before;
    if (rep == 0) first_reads = delta.bucket_reads;
    EXPECT_EQ(delta.bucket_reads, first_reads) << "repetition " << rep;
  }
  EXPECT_GE(first_reads, keys.size());
  EXPECT_LE(first_reads, 2 * keys.size());
}

}  // namespace
}  // namespace gpusim
}  // namespace dycuckoo
