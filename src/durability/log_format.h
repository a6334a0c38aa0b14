// On-the-wire format of the write-ahead log and the checkpoint store.
//
// A WAL is a 44-byte file header followed by a sequence of CRC32-framed,
// LSN-stamped records:
//
//   file header:  [u64 magic][u64 version][u64 key_width][u64 value_width]
//                 [u64 first_lsn][u32 crc(version..first_lsn)]
//   record frame: [u32 body_len][u32 crc(body)] body
//   record body:  [u64 lsn][u8 type][payload]
//
// `first_lsn` is the LSN of the first record that may appear in the file;
// head truncation (after a checkpoint) drops whole records from the front
// and advances it.  LSNs are assigned densely (+1 per record), so recovery
// can detect a gap — a truncation that outran its checkpoint — as DataLoss
// rather than silently replaying from the wrong point.
//
// Record types:
//   kInsert         payload = key bytes + value bytes (an upsert)
//   kErase          payload = key bytes
//   kResizeBarrier  payload = u64 capacity_slots (informational marker)
//   kCheckpointMark payload = u64 checkpoint_lsn (a checkpoint covering
//                   every record with lsn <= checkpoint_lsn is durable)
//   kReshardCutover payload = [u64 generation][u32 chunk][u32 shards_from]
//                   [u32 shards_to].  Written by service::Resharder on the
//                   source and then the target segment once a migration
//                   chunk's copy is durable; a cutover record in the
//                   TARGET segment is proof the chunk's data is fully on
//                   the target, so recovery resumes the migration instead
//                   of rolling it back.  Duplicates are harmless markers.
//
// The checkpoint store is a sequence of self-delimiting entries, each
// wrapping one DynamicTable v2 snapshot:
//
//   entry: [u64 magic][u64 checkpoint_lsn][u64 payload_len]
//          [payload bytes][u32 crc(lsn, len, payload)]
//
// Recovery scans for the newest entry whose frame and CRC are intact and
// falls back to the previous one if the newest is torn or corrupt — which
// is why the WAL is only ever truncated up to the *previous* checkpoint's
// LSN (see DurabilityManager).
//
// All multi-byte integers are little-endian host order: the WAL never
// leaves the machine that wrote it (matching the simulated-device setting),
// and the v2 snapshot format it wraps makes the same choice.

#ifndef DYCUCKOO_DURABILITY_LOG_FORMAT_H_
#define DYCUCKOO_DURABILITY_LOG_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace dycuckoo {
namespace durability {

/// Fixed-width field codec shared by the WAL, checkpoint and manifest
/// formats (host byte order, see above).  The Get* readers do no bounds
/// checking: callers have validated the frame length first.
inline void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline constexpr uint64_t kWalMagic = 0xD1C0CC00'4A11F11EULL;
inline constexpr uint64_t kWalFormatVersion = 1;
inline constexpr uint64_t kCheckpointEntryMagic = 0xD1C0CC00'C4EC9014ULL;

/// Frame overhead: u32 body_len + u32 crc.
inline constexpr size_t kWalFrameHeaderBytes = 8;
/// Body prefix: u64 lsn + u8 type.
inline constexpr size_t kWalRecordPrefixBytes = 9;
/// File header: magic, version, key width, value width, first_lsn, crc.
inline constexpr size_t kWalFileHeaderBytes = 5 * 8 + 4;
/// Checkpoint entry header: magic, checkpoint_lsn, payload_len.
inline constexpr size_t kCheckpointEntryHeaderBytes = 3 * 8;
/// Sanity bound on one record body; anything larger is corruption.
inline constexpr uint32_t kMaxWalRecordBytes = 1u << 20;

enum class WalRecordType : uint8_t {
  kInsert = 1,
  kErase = 2,
  kResizeBarrier = 3,
  kCheckpointMark = 4,
  kReshardCutover = 5,
};

/// Fixed payload size of a kReshardCutover record:
/// [u64 generation][u32 chunk][u32 shards_from][u32 shards_to].
inline constexpr size_t kReshardCutoverPayloadBytes = 8 + 3 * 4;

/// Names of every crash point the durability layer crosses, in the order a
/// fault-free run first reaches them.  Chaos tests iterate this list so a
/// newly added kill point is exercised without editing the test.
inline constexpr const char* kKillPointNames[] = {
    "wal.commit.before",   // group commit about to write; nothing durable
    "wal.commit.mid",      // a prefix of the batch's records is durable
    "wal.commit.after",    // all records durable, no ack released yet
    "ckpt.begin",          // checkpoint entry header about to be written
    "ckpt.mid",            // checkpoint payload partially written
    "ckpt.entry_end",      // checkpoint entry fully durable, not yet marked
    "ckpt.mark",           // checkpoint-mark record durable, WAL not trimmed
    "wal.truncate.after",  // WAL head truncated to the previous checkpoint
};
inline constexpr size_t kNumKillPoints =
    sizeof(kKillPointNames) / sizeof(kKillPointNames[0]);

/// Crash points crossed by service::Resharder, once per chunk transition in
/// the order a fault-free migration reaches them.  Unlike kKillPointNames
/// these are deployment-scoped (no shard prefix): a reshard crash takes the
/// whole process, and recovery decides resume-vs-rollback from the journal.
inline constexpr const char* kReshardKillPointNames[] = {
    "reshard.before_copy",     // chunk still pending; nothing copied
    "reshard.after_copy",      // copy durable on target, journal=copied
    "reshard.before_cutover",  // copy durable, no cutover record yet
    "reshard.after_cutover",   // cutover durable both sides, bit flipped
    "reshard.before_gc",       // routing on target, source copy not yet GCed
};
inline constexpr size_t kNumReshardKillPoints =
    sizeof(kReshardKillPointNames) / sizeof(kReshardKillPointNames[0]);

/// Outcome of parsing one frame (or the file header) at a given offset.
enum class ParseResult {
  kOk = 0,
  kTruncated = 1,  // fewer bytes available than the frame claims
  kCorrupt = 2,    // CRC mismatch or implausible length/type
};

/// A successfully parsed record, viewing (not owning) the log bytes.
struct ParsedRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsert;
  const char* payload = nullptr;
  size_t payload_len = 0;
  size_t frame_len = 0;  // total bytes consumed, frame header included
};

struct WalFileHeader {
  uint64_t version = 0;
  uint64_t key_width = 0;
  uint64_t value_width = 0;
  uint64_t first_lsn = 0;
};

/// Appends one framed record to `out`.
void AppendFrame(std::string* out, uint64_t lsn, WalRecordType type,
                 const void* payload, size_t payload_len);

/// Parses the frame at `data` with `avail` bytes remaining.
ParseResult ParseFrame(const char* data, size_t avail, ParsedRecord* rec);

/// Appends the 44-byte WAL file header to `out`.
void AppendWalFileHeader(std::string* out, uint64_t key_width,
                         uint64_t value_width, uint64_t first_lsn);

/// Parses (and CRC-checks) the WAL file header.
ParseResult ParseWalFileHeader(const char* data, size_t avail,
                               WalFileHeader* header);

}  // namespace durability
}  // namespace dycuckoo

#endif  // DYCUCKOO_DURABILITY_LOG_FORMAT_H_
