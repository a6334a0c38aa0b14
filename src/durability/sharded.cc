#include "durability/sharded.h"

#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "durability/log_format.h"

namespace dycuckoo {
namespace durability {

namespace {

std::string FixedWidth(const char* prefix, uint32_t shard_id,
                       uint32_t num_shards, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%05u-of-%05u%s", prefix, shard_id,
                num_shards, suffix);
  return buf;
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool GetU32(const std::string& in, size_t* off, uint32_t* v) {
  if (*off + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *off, sizeof(*v));
  *off += sizeof(*v);
  return true;
}

bool GetU64(const std::string& in, size_t* off, uint64_t* v) {
  if (*off + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *off, sizeof(*v));
  *off += sizeof(*v);
  return true;
}

bool GetString(const std::string& in, size_t* off, std::string* s) {
  uint32_t len = 0;
  if (!GetU32(in, off, &len)) return false;
  if (*off + len > in.size()) return false;
  s->assign(in, *off, len);
  *off += len;
  return true;
}

}  // namespace

std::string ShardScope(uint32_t shard_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05u/", shard_id);
  return buf;
}

std::string WalSegmentName(uint32_t shard_id, uint32_t num_shards) {
  return FixedWidth("wal-", shard_id, num_shards, ".seg");
}

std::string CheckpointSegmentName(uint32_t shard_id, uint32_t num_shards) {
  return FixedWidth("ckpt-", shard_id, num_shards, ".seg");
}

ShardManifest ShardManifest::Make(uint32_t num_shards, uint64_t router_seed,
                                  uint32_t key_width, uint32_t value_width) {
  ShardManifest m;
  m.num_shards = num_shards;
  m.router_seed = router_seed;
  m.key_width = key_width;
  m.value_width = value_width;
  m.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardManifestEntry e;
    e.shard_id = s;
    e.wal_segment = WalSegmentName(s, num_shards);
    e.checkpoint_segment = CheckpointSegmentName(s, num_shards);
    m.shards.push_back(std::move(e));
  }
  return m;
}

std::string ShardManifest::Encode() const {
  std::string out;
  PutU64(&out, kShardManifestMagic);
  PutU64(&out, kShardManifestVersion);
  // Total image length (CRC trailer included), patched in below.  Lets
  // Decode classify a truncated trailer precisely instead of reading a
  // garbage CRC and reporting a mismatch.
  const size_t len_off = out.size();
  PutU32(&out, 0);
  PutU32(&out, num_shards);
  PutU32(&out, key_width);
  PutU32(&out, value_width);
  PutU64(&out, router_seed);
  PutU64(&out, generation);
  PutU32(&out, static_cast<uint32_t>(shards.size()));
  for (const ShardManifestEntry& e : shards) {
    PutU32(&out, e.shard_id);
    PutString(&out, e.wal_segment);
    PutString(&out, e.checkpoint_segment);
  }
  const uint32_t total = static_cast<uint32_t>(out.size() + 4);
  std::memcpy(&out[len_off], &total, 4);
  // CRC over everything after the magic, like the checkpoint entries.
  uint32_t crc = Crc32Update(0, out.data() + 8, out.size() - 8);
  PutU32(&out, crc);
  return out;
}

Status ShardManifest::Decode(const std::string& image, ShardManifest* out) {
  *out = ShardManifest{};
  size_t off = 0;
  uint64_t magic = 0;
  uint64_t version = 0;
  if (!GetU64(image, &off, &magic) || magic != kShardManifestMagic) {
    return Status::DataLoss("shard manifest: bad magic");
  }
  uint32_t total_len = 0;
  if (!GetU64(image, &off, &version) || !GetU32(image, &off, &total_len)) {
    return Status::DataLoss("shard manifest: truncated header");
  }
  if (image.size() < total_len) {
    return Status::DataLoss(
        "shard manifest: truncated (header says " +
        std::to_string(total_len) + " bytes, image has " +
        std::to_string(image.size()) + " — the CRC trailer is gone)");
  }
  if (image.size() > total_len) {
    return Status::DataLoss("shard manifest: trailing bytes after trailer");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, image.data() + image.size() - 4, 4);
  uint32_t actual_crc = Crc32Update(0, image.data() + 8, image.size() - 8 - 4);
  if (stored_crc != actual_crc) {
    return Status::DataLoss("shard manifest: CRC mismatch");
  }
  if (version != kShardManifestVersion) {
    return Status::InvalidArgument(
        "shard manifest: unsupported version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kShardManifestVersion) +
        "; refusing to guess at a future layout)");
  }
  uint32_t entry_count = 0;
  if (!GetU32(image, &off, &out->num_shards) ||
      !GetU32(image, &off, &out->key_width) ||
      !GetU32(image, &off, &out->value_width) ||
      !GetU64(image, &off, &out->router_seed) ||
      !GetU64(image, &off, &out->generation) ||
      !GetU32(image, &off, &entry_count)) {
    return Status::DataLoss("shard manifest: truncated header");
  }
  if (entry_count != out->num_shards) {
    return Status::InvalidArgument(
        "shard manifest: entry count does not match num_shards");
  }
  out->shards.resize(entry_count);
  for (uint32_t i = 0; i < entry_count; ++i) {
    ShardManifestEntry& e = out->shards[i];
    if (!GetU32(image, &off, &e.shard_id) ||
        !GetString(image, &off, &e.wal_segment) ||
        !GetString(image, &off, &e.checkpoint_segment)) {
      return Status::DataLoss("shard manifest: truncated entry");
    }
    if (e.shard_id != i) {
      return Status::InvalidArgument(
          "shard manifest: entries out of shard order");
    }
  }
  return Status::OK();
}

Status ShardManifest::ValidateCompatible(uint32_t expect_shards,
                                         uint64_t expect_router_seed,
                                         uint32_t expect_key_width,
                                         uint32_t expect_value_width) const {
  if (num_shards != expect_shards) {
    return Status::InvalidArgument(
        "shard manifest: deployment has " + std::to_string(expect_shards) +
        " shards but the manifest was written with " +
        std::to_string(num_shards) +
        " — replay would mis-route every key");
  }
  if (router_seed != expect_router_seed) {
    return Status::InvalidArgument(
        "shard manifest: router seed mismatch — the segments were written "
        "under a different key->shard mapping");
  }
  if (key_width != expect_key_width || value_width != expect_value_width) {
    return Status::InvalidArgument(
        "shard manifest: key/value widths do not match this table type");
  }
  return Status::OK();
}

ReshardJournal ReshardJournal::Make(uint64_t generation_from,
                                    uint64_t router_seed,
                                    uint32_t shards_from, uint32_t shards_to) {
  ReshardJournal j;
  j.generation_from = generation_from;
  j.router_seed = router_seed;
  j.shards_from = shards_from;
  j.shards_to = shards_to;
  j.num_chunks =
      kReshardChunksPerShard * (shards_from > shards_to ? shards_from
                                                        : shards_to);
  j.chunks.assign(j.num_chunks, ReshardChunkState::kPending);
  return j;
}

std::string ReshardJournal::Encode() const {
  std::string out;
  PutU64(&out, kReshardJournalMagic);
  PutU64(&out, kReshardJournalVersion);
  PutU64(&out, generation_from);
  PutU64(&out, router_seed);
  PutU32(&out, shards_from);
  PutU32(&out, shards_to);
  PutU32(&out, num_chunks);
  for (ReshardChunkState s : chunks) {
    out.push_back(static_cast<char>(s));
  }
  uint32_t crc = Crc32Update(0, out.data() + 8, out.size() - 8);
  PutU32(&out, crc);
  return out;
}

Status ReshardJournal::Decode(const std::string& image, ReshardJournal* out) {
  *out = ReshardJournal{};
  size_t off = 0;
  uint64_t magic = 0;
  uint64_t version = 0;
  if (!GetU64(image, &off, &magic) || magic != kReshardJournalMagic) {
    return Status::DataLoss("reshard journal: bad magic");
  }
  if (image.size() < off + 4) {
    return Status::DataLoss("reshard journal: truncated");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, image.data() + image.size() - 4, 4);
  uint32_t actual_crc = Crc32Update(0, image.data() + 8, image.size() - 8 - 4);
  if (stored_crc != actual_crc) {
    return Status::DataLoss("reshard journal: CRC mismatch");
  }
  if (!GetU64(image, &off, &version) || version != kReshardJournalVersion) {
    return Status::InvalidArgument("reshard journal: unsupported version");
  }
  if (!GetU64(image, &off, &out->generation_from) ||
      !GetU64(image, &off, &out->router_seed) ||
      !GetU32(image, &off, &out->shards_from) ||
      !GetU32(image, &off, &out->shards_to) ||
      !GetU32(image, &off, &out->num_chunks)) {
    return Status::DataLoss("reshard journal: truncated header");
  }
  if (out->shards_from == 0 || out->shards_to == 0 ||
      (out->shards_to != 2 * out->shards_from &&
       out->shards_from != 2 * out->shards_to)) {
    return Status::InvalidArgument(
        "reshard journal: shard counts are not a split or merge");
  }
  if (off + out->num_chunks + 4 != image.size()) {
    return Status::DataLoss("reshard journal: truncated chunk states");
  }
  out->chunks.resize(out->num_chunks);
  for (uint32_t c = 0; c < out->num_chunks; ++c) {
    uint8_t raw = static_cast<uint8_t>(image[off + c]);
    if (raw > static_cast<uint8_t>(ReshardChunkState::kDone)) {
      return Status::InvalidArgument(
          "reshard journal: unknown chunk state " + std::to_string(raw));
    }
    out->chunks[c] = static_cast<ReshardChunkState>(raw);
  }
  return Status::OK();
}

void ResolveReshardJournal(ReshardJournal* journal,
                           const std::vector<RecoveryReport>& reports) {
  for (const RecoveryReport& r : reports) {
    for (const ReshardCutoverSeen& c : r.reshard_cutovers) {
      if (c.generation != journal->generation_from) continue;
      if (c.shards_from != journal->shards_from ||
          c.shards_to != journal->shards_to) {
        continue;
      }
      if (c.chunk >= journal->num_chunks) continue;
      if (journal->target_shard(c.chunk) != r.shard_id) continue;
      ReshardChunkState& s = journal->chunks[c.chunk];
      if (s == ReshardChunkState::kPending ||
          s == ReshardChunkState::kCopied) {
        s = ReshardChunkState::kCutOver;
      }
    }
  }
}

}  // namespace durability
}  // namespace dycuckoo
