#include "gpusim/sim_counters.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace dycuckoo {
namespace gpusim {
namespace {

TEST(SimCountersTest, ResetZeroesEverything) {
  auto& c = SimCounters::Get();
  c.atomic_cas.fetch_add(5);
  c.bucket_reads.fetch_add(7);
  c.Reset();
  auto snap = c.Capture();
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
  auto snap = c.Capture();
  EXPECT_EQ(snap.bucket_reads, 2u);
  EXPECT_EQ(snap.bucket_writes, 1u);
  EXPECT_EQ(snap.evictions, 1u);
  EXPECT_EQ(snap.lock_conflicts, 1u);
  EXPECT_EQ(snap.chain_nodes_visited, 1u);
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

TEST(SimCountersTest, OneWordPerCounter) {
  // The block holds its counters and nothing else, so the layout (and
  // which counters share a cache line) is the list's order.
  EXPECT_EQ(sizeof(SimCounters), 9 * sizeof(uint64_t));
  EXPECT_EQ(sizeof(SimCounters), sizeof(SimCounters::Snapshot));
}

TEST(SimCountersTest, SingletonIdentity) {
  EXPECT_EQ(&SimCounters::Get(), &SimCounters::Get());
}

}  // namespace
}  // namespace gpusim
}  // namespace dycuckoo
