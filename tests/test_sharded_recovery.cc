// Sharded durability: segment naming, the shard manifest (the routing-
// invariant gate), parallel multi-shard recovery, the restart path
// (RecoverShardedDeployment + AdoptRecoveredSharded), and the poisoned-WAL
// fault-domain scenario — one shard's mid-log corruption is classified
// and quarantined while every other shard recovers fully and serves.

#include "durability/sharded.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "durability/log_format.h"
#include "durability/recovery.h"
#include "dycuckoo/dynamic_table.h"
#include "dycuckoo/options.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"
#include "service/sharded_server.h"
#include "test_util.h"

namespace dycuckoo {
namespace durability {
namespace {

using Table = DynamicTable<uint32_t, uint32_t>;
using Sharded = service::ShardedTableServer<uint32_t, uint32_t>;
using OpType = Sharded::OpType;
using Outcome = ShardRecoveryOutcome<uint32_t, uint32_t>;

TEST(ShardSegments, NamingIsFixedWidthAndScoped) {
  EXPECT_EQ(ShardScope(3), "shard-00003/");
  EXPECT_EQ(WalSegmentName(3, 16), "wal-00003-of-00016.seg");
  EXPECT_EQ(CheckpointSegmentName(0, 4), "ckpt-00000-of-00004.seg");
  EXPECT_EQ(WalSegmentName(15, 16), "wal-00015-of-00016.seg");
}

TEST(ShardManifest, RoundTripsAndValidates) {
  ShardManifest m = ShardManifest::Make(4, /*router_seed=*/0xabcdef, 4, 4);
  ASSERT_EQ(m.shards.size(), 4u);
  EXPECT_EQ(m.shards[2].wal_segment, WalSegmentName(2, 4));

  std::string image = m.Encode();
  ShardManifest decoded;
  ASSERT_TRUE(ShardManifest::Decode(image, &decoded).ok());
  EXPECT_EQ(decoded.num_shards, 4u);
  EXPECT_EQ(decoded.router_seed, 0xabcdefull);
  EXPECT_EQ(decoded.key_width, 4u);
  EXPECT_EQ(decoded.value_width, 4u);
  ASSERT_EQ(decoded.shards.size(), 4u);
  EXPECT_EQ(decoded.shards[3].checkpoint_segment,
            CheckpointSegmentName(3, 4));

  EXPECT_TRUE(decoded.ValidateCompatible(4, 0xabcdef, 4, 4).ok());
  EXPECT_TRUE(decoded.ValidateCompatible(8, 0xabcdef, 4, 4)
                  .IsInvalidArgument());
  EXPECT_TRUE(decoded.ValidateCompatible(4, 0xfeedbeef, 4, 4)
                  .IsInvalidArgument());
  EXPECT_TRUE(decoded.ValidateCompatible(4, 0xabcdef, 8, 4)
                  .IsInvalidArgument());
}

TEST(ShardManifest, CorruptionIsDetectedNeverTrusted) {
  ShardManifest m = ShardManifest::Make(2, 7, 4, 4);
  std::string image = m.Encode();

  std::string flipped = image;
  flipped[image.size() / 2] ^= 0x10;
  ShardManifest out;
  EXPECT_TRUE(ShardManifest::Decode(flipped, &out).IsDataLoss());

  std::string truncated = image.substr(0, image.size() / 2);
  EXPECT_TRUE(ShardManifest::Decode(truncated, &out).IsDataLoss());

  std::string bad_magic = image;
  bad_magic[0] ^= 0xff;
  EXPECT_TRUE(ShardManifest::Decode(bad_magic, &out).IsDataLoss());
}

// Version-skew matrix: three distinct failure modes an operator can hit
// when images and binaries drift apart, each classified with a distinct,
// precise status — never conflated, never guessed at.
//
//   torn trailer        -> DataLoss        ("the CRC trailer is gone")
//   future version byte -> InvalidArgument ("unsupported version")
//   router-seed skew    -> InvalidArgument ("router seed mismatch")
TEST(ShardManifestVersionSkew, TruncatedCrcTrailerIsPreciseDataLoss) {
  const std::string image = ShardManifest::Make(4, 0x5eed, 4, 4).Encode();
  ShardManifest out;
  // Chop inside the 4-byte CRC trailer (1..4 bytes gone).  The v2
  // total-length header field lets Decode say "the trailer is gone"
  // instead of checking a garbage CRC and reporting a mismatch.
  for (size_t cut = 1; cut <= 4; ++cut) {
    Status st = ShardManifest::Decode(
        image.substr(0, image.size() - cut), &out);
    EXPECT_TRUE(st.IsDataLoss()) << "cut=" << cut << ": " << st.ToString();
    EXPECT_NE(st.message().find("truncated"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find("CRC trailer is gone"), std::string::npos)
        << "cut=" << cut << " should be classified as a torn trailer, "
        << "not a CRC mismatch: " << st.ToString();
  }
}

TEST(ShardManifestVersionSkew, FutureVersionByteIsRefusedNotGuessed) {
  std::string image = ShardManifest::Make(4, 0x5eed, 4, 4).Encode();
  // Stamp a future version (field sits right after the 8-byte magic) and
  // RECOMPUTE the CRC trailer so the image is intact, just newer — this
  // must surface as version skew, not corruption.
  const uint64_t future = kShardManifestVersion + 1;
  std::memcpy(&image[8], &future, sizeof(future));
  const uint32_t crc =
      Crc32Update(0, image.data() + 8, image.size() - 8 - 4);
  std::memcpy(&image[image.size() - 4], &crc, sizeof(crc));

  ShardManifest out;
  Status st = ShardManifest::Decode(image, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("unsupported version"), std::string::npos)
      << st.ToString();
  // The message names both versions so the operator knows which side to
  // upgrade.
  EXPECT_NE(st.message().find(std::to_string(future)), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find(std::to_string(kShardManifestVersion)),
            std::string::npos)
      << st.ToString();
}

TEST(ShardManifestVersionSkew, RouterSeedMismatchIsNamedPrecisely) {
  // An intact manifest from a deployment with a different router seed:
  // Decode succeeds (nothing is corrupt), the compatibility gate refuses.
  ShardManifest decoded;
  Status dst = ShardManifest::Decode(
      ShardManifest::Make(4, /*router_seed=*/0xAAAA, 4, 4).Encode(),
      &decoded);
  ASSERT_TRUE(dst.ok()) << dst.ToString();
  Status st = decoded.ValidateCompatible(4, /*router_seed=*/0xBBBB, 4, 4);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("router seed mismatch"), std::string::npos)
      << st.ToString();

  // Distinctness of the matrix: all three skews carry different codes or
  // messages, so no operator runbook branch can be taken by mistake.
  ShardManifest out;
  const std::string image = ShardManifest::Make(4, 0xAAAA, 4, 4).Encode();
  Status torn =
      ShardManifest::Decode(image.substr(0, image.size() - 2), &out);
  EXPECT_NE(torn.code(), st.code());
  EXPECT_EQ(st.message().find("CRC trailer"), std::string::npos);
  EXPECT_EQ(torn.message().find("router seed"), std::string::npos);
}

// Satellite: two shards recovering byte-identical segments must still
// produce distinguishable reports — the digest covers the source
// identity, not just the replay counters.
TEST(RecoveryReportIdentity, IdenticalImagesDistinctShards) {
  DyCuckooOptions topt;
  topt.initial_capacity = 4096;

  auto recover_empty = [&](uint32_t shard) {
    std::unique_ptr<Table> table;
    RecoveryReport report;
    RecoverySource source;
    source.shard_id = shard;
    source.segment = WalSegmentName(shard, 4);
    Status st =
        Recover<uint32_t, uint32_t>("", "", topt, &table, &report, source);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return report;
  };

  RecoveryReport a = recover_empty(0);
  RecoveryReport b = recover_empty(1);
  RecoveryReport a2 = recover_empty(0);
  EXPECT_NE(a.Digest(), b.Digest())
      << "identical logs on different shards must not collide";
  EXPECT_EQ(a.Digest(), a2.Digest()) << "same shard, same log, same digest";
  EXPECT_EQ(b.shard_id, 1u);
  EXPECT_EQ(b.segment, WalSegmentName(1, 4));
  EXPECT_NE(a.ToString().find("wal-00000-of-00004.seg"), std::string::npos);
}

// --- Shared fixture: a deterministic sharded deployment with traffic ------

struct Deployment {
  gpusim::DeviceArena arena{0};
  gpusim::Grid grid{1};
  DyCuckooOptions topt;
  Sharded::Options options;
  std::unique_ptr<Sharded> server;
  std::unordered_map<uint32_t, uint32_t> acked;

  explicit Deployment(uint32_t num_shards, uint64_t seed = 99) {
    topt.arena = &arena;
    topt.grid = &grid;
    topt.initial_capacity = 32 * 1024;
    options.num_shards = num_shards;
    options.shard.scrub_buckets_per_step = 8;
    // Keep the full history in the WAL: no checkpoint truncation, so a
    // poisoned log provably covers acknowledged writes.
    options.durability.checkpoint_wal_bytes = 1ull << 30;
    options.supervisor.heal_backoff_ticks = 4;
    options.supervisor.max_heal_attempts = 2;
    EXPECT_TRUE(Sharded::Create(topt, options, &server).ok());
    Seed(seed);
  }

 private:
  // gtest fatal assertions need a void function, not a constructor body.
  void Seed(uint64_t seed) {
    // 600 acked inserts spread across the shards.
    std::vector<uint32_t> keys = testing::UniqueKeys(600, seed);
    for (size_t i = 0; i < keys.size(); i += 50) {
      Sharded::Request req;
      for (size_t j = i; j < i + 50 && j < keys.size(); ++j) {
        uint32_t v = static_cast<uint32_t>(j) * 3 + 1;
        req.ops.push_back(Sharded::Op{OpType::kInsert, keys[j], v});
      }
      uint64_t id = server->Submit(std::move(req));
      server->RunUntilIdle();
      Sharded::Response resp;
      ASSERT_TRUE(server->TakeResponse(id, &resp));
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      for (size_t j = i; j < i + 50 && j < keys.size(); ++j) {
        acked[keys[j]] = static_cast<uint32_t>(j) * 3 + 1;
      }
    }
  }
};

TEST(RecoverAllShards, ParallelIsBitIdenticalToSerial) {
  Deployment dep(4);
  std::vector<ShardImages> images = dep.server->DurableImages();
  std::vector<DyCuckooOptions> opts = dep.server->ShardTableOptionsList();

  auto serial =
      RecoverAllShards<uint32_t, uint32_t>(images, opts, /*max_parallel=*/1);
  auto parallel =
      RecoverAllShards<uint32_t, uint32_t>(images, opts, /*max_parallel=*/4);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(serial[s].status.ok()) << serial[s].status.ToString();
    ASSERT_TRUE(parallel[s].status.ok()) << parallel[s].status.ToString();
    EXPECT_EQ(serial[s].report.Digest(), parallel[s].report.Digest())
        << "shard " << s << ": parallel replay diverged from serial";
    auto a = serial[s].table->Dump();
    auto b = parallel[s].table->Dump();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "shard " << s;
  }

  // Every acked write is in exactly the shard the router assigns it.
  for (const auto& [k, v] : dep.acked) {
    uint32_t shard = dep.server->router().ShardOf(k);
    uint32_t rv = 0;
    ASSERT_TRUE(parallel[shard].table->Find(k, &rv)) << "lost key " << k;
    EXPECT_EQ(rv, v);
  }
}

TEST(RecoverShardedDeployment, ManifestGateRejectsMisroutedResurrection) {
  Deployment dep(4);
  std::vector<ShardImages> images = dep.server->DurableImages();
  std::vector<DyCuckooOptions> opts = dep.server->ShardTableOptionsList();
  const std::string manifest = dep.server->ManifestImage();
  ASSERT_EQ(dep.server->JournalImage(), "");

  ShardedDeploymentRecovery<uint32_t, uint32_t> rec;
  Status gated = RecoverShardedDeployment<uint32_t, uint32_t>(
      manifest, "", images, opts, dep.options.router_seed, &rec);
  EXPECT_TRUE(gated.ok()) << gated.ToString();
  ASSERT_EQ(rec.outcomes.size(), 4u);
  EXPECT_FALSE(rec.mid_reshard);
  EXPECT_FALSE(rec.rolled_back);

  // Wrong router seed: the segments were written under a different
  // key->shard mapping; replay must refuse, not scatter.
  Status wrong_seed = RecoverShardedDeployment<uint32_t, uint32_t>(
      manifest, "", images, opts, dep.options.router_seed + 1, &rec);
  EXPECT_TRUE(wrong_seed.IsInvalidArgument()) << wrong_seed.ToString();
  EXPECT_NE(wrong_seed.message().find("router seed mismatch"),
            std::string::npos)
      << wrong_seed.ToString();
  EXPECT_TRUE(rec.outcomes.empty()) << "refused before any replay";

  // Wrong shard count (images for a different deployment size).
  std::vector<ShardImages> three(images.begin(), images.begin() + 3);
  std::vector<DyCuckooOptions> three_opts(opts.begin(), opts.begin() + 3);
  Status wrong_count = RecoverShardedDeployment<uint32_t, uint32_t>(
      manifest, "", three, three_opts, dep.options.router_seed, &rec);
  EXPECT_TRUE(wrong_count.IsInvalidArgument()) << wrong_count.ToString();
  EXPECT_TRUE(rec.outcomes.empty()) << "refused before any replay";
}

// Satellite: cross-shard recovery with one poisoned WAL.  Shard k's log
// takes a bit flip mid-record with intact records after it (acknowledged
// data provably lost); every other shard recovers fully and serves while
// k is quarantined, and k's report/status classify the corruption.
TEST(PoisonedWal, OtherShardsServeWhileFaultedShardIsQuarantined) {
  const uint32_t kShards = 4;
  const uint32_t kPoisoned = 2;
  Deployment dep(kShards);
  std::vector<ShardImages> images = dep.server->DurableImages();
  std::vector<DyCuckooOptions> opts = dep.server->ShardTableOptionsList();

  ASSERT_GT(images[kPoisoned].wal.size(), kWalFileHeaderBytes + 64)
      << "poisoned shard needs a multi-record log for this scenario";
  // Flip one bit inside the FIRST record: everything after it is intact,
  // so this is mid-log corruption (acked loss), not a torn tail.
  images[kPoisoned].wal[kWalFileHeaderBytes + 8] ^= 0x04;

  ShardedDeploymentRecovery<uint32_t, uint32_t> rec;
  const Status recovered = RecoverShardedDeployment<uint32_t, uint32_t>(
      dep.server->ManifestImage(), dep.server->JournalImage(), images, opts,
      dep.options.router_seed, &rec);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  const std::vector<Outcome>& outcomes = rec.outcomes;
  ASSERT_EQ(outcomes.size(), kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    if (s == kPoisoned) {
      EXPECT_TRUE(outcomes[s].status.IsDataLoss())
          << outcomes[s].status.ToString();
      EXPECT_NE(outcomes[s].status.message().find("intact records after"),
                std::string::npos)
          << "must classify mid-log corruption, got: "
          << outcomes[s].status.ToString();
      EXPECT_EQ(outcomes[s].report.segment,
                WalSegmentName(kPoisoned, kShards));
    } else {
      ASSERT_TRUE(outcomes[s].status.ok()) << outcomes[s].status.ToString();
    }
  }

  // Adopt: the deployment comes back with N-1 shards serving.
  std::unique_ptr<Sharded> resumed;
  ASSERT_TRUE(Sharded::AdoptRecoveredSharded(&rec, images, dep.topt,
                                             dep.options, &resumed)
                  .ok());
  EXPECT_EQ(resumed->supervisor().state(kPoisoned),
            service::ShardState::kQuarantined);
  EXPECT_EQ(resumed->supervisor().serving_count(), kShards - 1);
  EXPECT_TRUE(resumed->supervisor().fault(kPoisoned).IsDataLoss());
  EXPECT_EQ(resumed->last_heal_report(kPoisoned).segment,
            WalSegmentName(kPoisoned, kShards));

  // Healthy shards answer every acked key; the poisoned shard's keys are
  // rejected with machine-readable shard identity and retry hint.
  uint64_t healthy_hits = 0, quarantined_rejections = 0;
  for (const auto& [k, v] : dep.acked) {
    Sharded::Request req;
    req.ops.push_back(Sharded::Op{OpType::kFind, k, 0});
    uint64_t id = resumed->Submit(std::move(req));
    resumed->RunUntilIdle();
    Sharded::Response resp;
    ASSERT_TRUE(resumed->TakeResponse(id, &resp));
    if (resumed->router().ShardOf(k) == kPoisoned) {
      ASSERT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
      const std::string* shard = resp.status.FindDetail("shard");
      const std::string* retry =
          resp.status.FindDetail("retry_after_ticks");
      const std::string* executed = resp.status.FindDetail("executed");
      ASSERT_NE(shard, nullptr);
      EXPECT_EQ(*shard, std::to_string(kPoisoned));
      ASSERT_NE(retry, nullptr);
      ASSERT_NE(executed, nullptr);
      EXPECT_EQ(*executed, "never");
      ++quarantined_rejections;
    } else {
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_EQ(resp.results.size(), 1u);
      EXPECT_EQ(resp.results[0].hit, 1u) << "healthy shard lost key " << k;
      EXPECT_EQ(resp.results[0].value, v);
      ++healthy_hits;
    }
  }
  EXPECT_GT(healthy_hits, 0u);
  EXPECT_GT(quarantined_rejections, 0u);

  // The poison is in the durable images themselves, so self-heal CANNOT
  // succeed — after max_heal_attempts the supervisor parks the shard as
  // kFailed (operator intervention), and the retry hint honestly drops
  // to "no automatic recovery coming".
  for (int i = 0;
       i < 5000 && resumed->supervisor().state(kPoisoned) !=
                       service::ShardState::kFailed;
       ++i) {
    resumed->Step();
  }
  EXPECT_EQ(resumed->supervisor().state(kPoisoned),
            service::ShardState::kFailed);
  EXPECT_TRUE(
      resumed->supervisor().last_heal_status(kPoisoned).IsDataLoss());
  EXPECT_EQ(resumed->supervisor().serving_count(), kShards - 1);
}

}  // namespace
}  // namespace durability
}  // namespace dycuckoo
