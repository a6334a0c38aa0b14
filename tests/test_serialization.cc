// Tests for Save/Load snapshots.

#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "dycuckoo/dycuckoo.h"
#include "gpusim/device_arena.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::SequentialValues;
using testing::UniqueKeys;

TEST(SerializationTest, RoundTripPreservesContents) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(30000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());

  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());

  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, o, &restored).ok());
  EXPECT_EQ(restored->size(), keys.size());
  EXPECT_TRUE(restored->Validate().ok());

  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  restored->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]) << i;
    ASSERT_EQ(out[i], i);
  }
}

TEST(SerializationTest, EmptyTableRoundTrip) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, o, &restored).ok());
  EXPECT_EQ(restored->size(), 0u);
}

TEST(SerializationTest, LoadUnderDifferentOptions) {
  DyCuckooOptions save_opts;
  save_opts.num_subtables = 4;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(save_opts, &t).ok());
  auto keys = UniqueKeys(10000, 5);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());

  DyCuckooOptions load_opts;
  load_opts.num_subtables = 6;  // different layout: snapshot is logical
  load_opts.seed = 987654321;
  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, load_opts, &restored).ok());
  EXPECT_EQ(restored->size(), keys.size());
  EXPECT_EQ(restored->num_subtables(), 6);
  std::vector<uint8_t> found(keys.size());
  restored->BulkFind(keys, nullptr, found.data());
  for (auto f : found) ASSERT_TRUE(f);
}

TEST(SerializationTest, RejectsGarbage) {
  std::stringstream ss;
  ss << "definitely not a snapshot";
  std::unique_ptr<DyCuckooMap> restored;
  EXPECT_TRUE(
      DyCuckooMap::Load(ss, DyCuckooOptions{}, &restored).IsInvalidArgument());
}

TEST(SerializationTest, RejectsWidthMismatch) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap64> wide;
  ASSERT_TRUE(DyCuckooMap64::Create(o, &wide).ok());
  ASSERT_TRUE(wide->Insert(1, 2).ok());
  std::stringstream ss;
  ASSERT_TRUE(wide->Save(ss).ok());

  std::unique_ptr<DyCuckooMap> narrow;
  EXPECT_TRUE(DyCuckooMap::Load(ss, o, &narrow).IsInvalidArgument());
}

TEST(SerializationTest, RejectsTruncatedStream) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(1000, 6);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();
  std::stringstream cut(data.substr(0, data.size() / 2));
  std::unique_ptr<DyCuckooMap> restored;
  EXPECT_TRUE(DyCuckooMap::Load(cut, o, &restored).IsDataLoss());
}

TEST(SerializationTest, RejectsTruncatedHeader) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  ASSERT_TRUE(t->Insert(1, 2).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();

  // Cut inside the fixed-size header (after the magic but before the count):
  // the loader must fail cleanly, not read uninitialized header fields.
  for (size_t cut : {size_t{9}, size_t{17}, size_t{33}}) {
    std::stringstream truncated(data.substr(0, cut));
    std::unique_ptr<DyCuckooMap> restored;
    Status st = DyCuckooMap::Load(truncated, o, &restored);
    EXPECT_TRUE(st.IsDataLoss()) << "cut=" << cut << ": " << st.ToString();
    EXPECT_EQ(restored, nullptr);
  }
}

TEST(SerializationTest, RejectsVersion1Snapshot) {
  // The retired version-1 format (magic, key width, value width, count,
  // interleaved pairs; no version field, no CRC) is refused outright, even
  // when the image is complete and well-formed.
  constexpr uint64_t kVersion1Magic = 0xD1C0CC00'5A4B1705ULL;
  std::stringstream ss;
  uint64_t header[4] = {kVersion1Magic, sizeof(uint32_t), sizeof(uint32_t),
                        /*pairs=*/10};
  ss.write(reinterpret_cast<const char*>(header), sizeof(header));
  for (uint32_t i = 0; i < 10; ++i) {
    uint32_t key = i + 1, value = i;
    ss.write(reinterpret_cast<const char*>(&key), sizeof(key));
    ss.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(ss, DyCuckooOptions{}, &restored);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(restored, nullptr);
}

TEST(SerializationTest, DetectsSingleBitFlip) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(2000, 9);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();

  // Flip one bit in the middle of the payload: the CRC trailer must catch
  // it even though the stream parses structurally.
  data[data.size() / 2] ^= 0x10;
  std::stringstream corrupted(data);
  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(corrupted, o, &restored);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find("snapshot corrupt"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(restored, nullptr);  // no partially-populated table escapes
}

TEST(SerializationTest, DetectsMissingCrcTrailer) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(500, 10);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();

  // Drop the 4-byte trailer only: every pair is intact but the snapshot is
  // incomplete.
  std::stringstream cut(data.substr(0, data.size() - sizeof(uint32_t)));
  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(cut, o, &restored);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find("snapshot corrupt"), std::string::npos)
      << st.ToString();
}

TEST(SerializationTest, ExhaustiveBitFlipSweepNeverLoadsCorruptSnapshot) {
  // Flip every single bit of a small v2 snapshot, one at a time.  No flip
  // may crash the loader, return OK, or hand back a partial table: every
  // byte of the format is covered by either the magic check, the header
  // validation, or the CRC-32 trailer.  Only v2 is read, so a flipped
  // magic is refused as not-a-snapshot.
  //
  // A small private arena bounds the damage of a flipped entry count: a
  // count inflated to 2^60 must die as a fast OutOfMemory inside Reserve,
  // not as a real multi-gigabyte allocation.
  gpusim::DeviceArena arena(/*capacity_bytes=*/4u << 20);
  DyCuckooOptions o;
  o.arena = &arena;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(24, 12);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  const std::string data = ss.str();

  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] ^= static_cast<char>(1u << bit);
      std::stringstream corrupted(flipped);
      std::unique_ptr<DyCuckooMap> restored;
      Status st = DyCuckooMap::Load(corrupted, o, &restored);
      ASSERT_FALSE(st.ok())
          << "flip of byte " << byte << " bit " << bit << " loaded OK";
      ASSERT_EQ(restored, nullptr)
          << "flip of byte " << byte << " bit " << bit
          << " leaked a partial table (" << st.ToString() << ")";
    }
  }
}

TEST(SerializationTest, RejectsUnknownFormatVersion) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();
  // The version field is the second u64; bump it to a future version.
  uint64_t future = 99;
  data.replace(sizeof(uint64_t), sizeof(uint64_t),
               reinterpret_cast<const char*>(&future), sizeof(uint64_t));
  std::stringstream bumped(data);
  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(bumped, o, &restored);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("format version"), std::string::npos)
      << st.ToString();
}

TEST(SerializationTest, SixtyFourBitRoundTrip) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap64> t;
  ASSERT_TRUE(DyCuckooMap64::Create(o, &t).ok());
  SplitMix64 rng(8);
  std::vector<uint64_t> keys(5000), values(5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.Next() >> 1;
    values[i] = rng.Next();
  }
  ASSERT_TRUE(t->BulkInsert(keys, values).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::unique_ptr<DyCuckooMap64> restored;
  ASSERT_TRUE(DyCuckooMap64::Load(ss, o, &restored).ok());
  std::vector<uint64_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  restored->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], values[i]);
  }
}

}  // namespace
}  // namespace dycuckoo
