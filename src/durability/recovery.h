// Reading durable state back: newest valid checkpoint + WAL replay.
//
// One walk over a (checkpoint image, WAL image) pair answers both
// questions the stack asks of durable state.  Recover() rebuilds the
// table a crashed server would have acknowledged; PointLookup() folds the
// same walk over one key, without building a table (the scrubber's
// repair-from-durability).  The walk:
//
//   1. picks the base: the newest checkpoint entry whose frame CRC is
//      intact and whose v2 snapshot reads cleanly (header, widths, CRC,
//      nothing after the trailer), falling back to older entries, then to
//      an empty base;
//   2. validates the WAL header (CRC, key/value widths) and requires the
//      log to reach back to the base (a WAL truncated past it is
//      DataLoss);
//   3. replays the records with lsn > base in LSN order, requiring dense
//      LSNs, stopping at the last intact record (inserts are upserts and
//      erases are idempotent, so replaying a record whose effect the base
//      already contains is harmless);
//   4. distinguishes a *torn tail* (the log simply stops mid-record — the
//      expected shape after a crash during a group commit; the partial
//      record was never acknowledged, so it is counted and discarded) from
//      *mid-log corruption* (an intact record follows the damage, meaning
//      acknowledged records were lost — reported as DataLoss, never
//      silently skipped).
//
// Because both readers share the walk, PointLookup answers kUnreadable
// exactly when Recover fails on the same images.  The returned
// RecoveryReport is deterministic: two recoveries of the same byte images
// produce identical reports (compare with Digest()).

#ifndef DYCUCKOO_DURABILITY_RECOVERY_H_
#define DYCUCKOO_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "durability/checkpoint.h"
#include "durability/log_format.h"
#include "dycuckoo/dynamic_table.h"

namespace dycuckoo {
namespace durability {

/// Identity of the log a recovery is reading: which shard's WAL segment
/// this is.  A single-table deployment can leave it defaulted; a sharded
/// one passes each shard's id and segment name so two shards whose logs
/// happen to hold identical bytes still produce distinguishable reports.
struct RecoverySource {
  uint64_t shard_id = 0;
  std::string segment;  // WAL segment name, e.g. "wal-00003-of-00016.seg"
};

/// One kReshardCutover record replayed from a segment.  Recovery collects
/// these so the sharded layer can promote migration-journal chunk states:
/// a cutover record durable in the chunk's TARGET segment proves the copy
/// finished (the copy is flushed before the cutover record is appended).
struct ReshardCutoverSeen {
  uint64_t generation = 0;
  uint32_t chunk = 0;
  uint32_t shards_from = 0;
  uint32_t shards_to = 0;
};

/// What a recovery did, for operators and for determinism checks.
/// Marked [[nodiscard]]: a dropped report hides replay damage.
struct [[nodiscard]] RecoveryReport {
  uint64_t shard_id = 0;            // identity of the log summarized here
  std::string segment;              // WAL segment name ("" = unsharded)
  uint64_t checkpoint_lsn = 0;      // 0 = no usable checkpoint (empty start)
  uint64_t checkpoints_scanned = 0;
  uint64_t checkpoints_corrupt = 0;
  uint64_t wal_records_scanned = 0;
  uint64_t wal_records_applied = 0;  // state-mutating replays (insert/erase)
  uint64_t wal_records_skipped = 0;  // lsn <= checkpoint_lsn (already covered)
  uint64_t last_lsn = 0;             // highest intact LSN seen (0 = none)
  uint64_t torn_tail_bytes = 0;      // bytes discarded at the torn tail
  std::vector<ReshardCutoverSeen> reshard_cutovers;  // replay order

  /// FNV-1a over every field, the source identity included; equal digests
  /// <=> identical recoveries *of the same log*.  Two shards replaying
  /// byte-identical segments still differ, because the digest covers
  /// shard_id and segment.
  uint64_t Digest() const {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(shard_id);
    mix(segment.size());
    for (char c : segment) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    mix(checkpoint_lsn);
    mix(checkpoints_scanned);
    mix(checkpoints_corrupt);
    mix(wal_records_scanned);
    mix(wal_records_applied);
    mix(wal_records_skipped);
    mix(last_lsn);
    mix(torn_tail_bytes);
    mix(reshard_cutovers.size());
    for (const ReshardCutoverSeen& c : reshard_cutovers) {
      mix(c.generation);
      mix(c.chunk);
      mix(c.shards_from);
      mix(c.shards_to);
    }
    return h;
  }

  /// Operator-facing one-report summary (chaos artifacts, heal logs).
  std::string ToString() const {
    std::ostringstream os;
    os << "RecoveryReport{shard=" << shard_id << " segment="
       << (segment.empty() ? "<unsharded>" : segment)
       << " checkpoint_lsn=" << checkpoint_lsn
       << " checkpoints_scanned=" << checkpoints_scanned
       << " checkpoints_corrupt=" << checkpoints_corrupt
       << " wal_scanned=" << wal_records_scanned
       << " wal_applied=" << wal_records_applied
       << " wal_skipped=" << wal_records_skipped
       << " last_lsn=" << last_lsn
       << " torn_tail_bytes=" << torn_tail_bytes
       << " reshard_cutovers=" << reshard_cutovers.size()
       << " digest=" << Digest() << "}";
    return os.str();
  }
};

/// Outcome of a targeted key read-back from durable state (PointLookup).
enum class PointLookupResult {
  kFound = 0,       // authoritative (key, value) recovered
  kErased = 1,      // the key's last durable action was an erase
  kAbsent = 2,      // durable state has no trace of the key
  kUnreadable = 3,  // durable images cannot answer (Recover would fail)
};

namespace internal {

/// True if any offset in [from, image.size()) parses as an intact record —
/// the signature of mid-log corruption rather than a torn tail.
inline bool HasIntactRecordAfter(const std::string& image, size_t from) {
  if (image.size() < kWalFrameHeaderBytes + kWalRecordPrefixBytes) {
    return false;
  }
  size_t last = image.size() - kWalFrameHeaderBytes - kWalRecordPrefixBytes;
  for (size_t off = from; off <= last; ++off) {
    ParsedRecord rec;
    if (ParseFrame(image.data() + off, image.size() - off, &rec) ==
        ParseResult::kOk) {
      return true;
    }
  }
  return false;
}

/// Step 1 of the walk: offers `read_snapshot(data, len)` the CRC-valid
/// checkpoint entries newest first until it reads one cleanly, and sets
/// `report->checkpoint_lsn` to that entry's LSN (0 = the empty base).
template <typename ReadSnapshot>
void PickBase(const std::string& ckpt_image, RecoveryReport* report,
              ReadSnapshot&& read_snapshot) {
  const std::vector<CheckpointEntryView> entries =
      CheckpointStore::Scan(ckpt_image);
  report->checkpoints_scanned = entries.size();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->valid && read_snapshot(ckpt_image.data() + it->payload_offset,
                                   it->payload_len)) {
      report->checkpoint_lsn = it->checkpoint_lsn;
      return;
    }
    // A torn frame, or a CRC-valid wrapper around an unreadable snapshot:
    // count it and fall back to the previous checkpoint.
    ++report->checkpoints_corrupt;
  }
}

/// Steps 2-4 of the walk: validates `wal_image` against the base chosen by
/// PickBase and decodes every record above it once — inserts to
/// `on_insert(key, value)` (an error ends the walk), erases to
/// `on_erase(key)`, cutover markers into the report.
template <typename Key, typename Value, typename OnInsert, typename OnErase>
Status ReplaySuffix(const std::string& wal_image, RecoveryReport* report,
                    OnInsert&& on_insert, OnErase&& on_erase) {
  if (wal_image.empty()) return Status::OK();
  const uint64_t base_lsn = report->checkpoint_lsn;
  WalFileHeader header;
  if (ParseWalFileHeader(wal_image.data(), wal_image.size(), &header) !=
      ParseResult::kOk) {
    return Status::DataLoss("recovery: WAL file header corrupt");
  }
  if (header.key_width != sizeof(Key) ||
      header.value_width != sizeof(Value)) {
    return Status::InvalidArgument(
        "recovery: WAL key/value widths do not match this table type");
  }
  if (base_lsn + 1 < header.first_lsn) {
    return Status::DataLoss(
        "recovery: WAL truncated past the newest usable checkpoint "
        "(need lsn " + std::to_string(base_lsn + 1) +
        ", log starts at " + std::to_string(header.first_lsn) + ")");
  }
  size_t offset = kWalFileHeaderBytes;
  uint64_t expected_lsn = header.first_lsn;
  while (offset < wal_image.size()) {
    ParsedRecord rec;
    ParseResult pr = ParseFrame(wal_image.data() + offset,
                                wal_image.size() - offset, &rec);
    if (pr != ParseResult::kOk) {
      if (HasIntactRecordAfter(wal_image, offset + 1)) {
        return Status::DataLoss(
            "recovery: corrupt WAL record at offset " +
            std::to_string(offset) + " with intact records after it");
      }
      report->torn_tail_bytes = wal_image.size() - offset;
      break;
    }
    if (rec.lsn != expected_lsn) {
      return Status::DataLoss(
          "recovery: LSN gap in WAL (expected " +
          std::to_string(expected_lsn) + ", found " +
          std::to_string(rec.lsn) + ")");
    }
    expected_lsn = rec.lsn + 1;
    offset += rec.frame_len;
    ++report->wal_records_scanned;
    report->last_lsn = rec.lsn;
    if (rec.lsn <= base_lsn) {
      ++report->wal_records_skipped;
      continue;
    }
    switch (rec.type) {
      case WalRecordType::kInsert: {
        if (rec.payload_len != sizeof(Key) + sizeof(Value)) {
          return Status::DataLoss("recovery: malformed insert record");
        }
        Key k;
        Value v;
        std::memcpy(&k, rec.payload, sizeof(Key));
        std::memcpy(&v, rec.payload + sizeof(Key), sizeof(Value));
        Status st = on_insert(k, v);
        if (!st.ok()) {
          return Status::Internal("recovery: replay of insert at lsn " +
                                  std::to_string(rec.lsn) +
                                  " failed: " + st.ToString());
        }
        ++report->wal_records_applied;
        break;
      }
      case WalRecordType::kErase: {
        if (rec.payload_len != sizeof(Key)) {
          return Status::DataLoss("recovery: malformed erase record");
        }
        Key k;
        std::memcpy(&k, rec.payload, sizeof(Key));
        on_erase(k);  // idempotent; absent key is fine
        ++report->wal_records_applied;
        break;
      }
      case WalRecordType::kReshardCutover: {
        if (rec.payload_len != kReshardCutoverPayloadBytes) {
          return Status::DataLoss("recovery: malformed cutover record");
        }
        ReshardCutoverSeen seen;
        std::memcpy(&seen.generation, rec.payload, 8);
        std::memcpy(&seen.chunk, rec.payload + 8, 4);
        std::memcpy(&seen.shards_from, rec.payload + 12, 4);
        std::memcpy(&seen.shards_to, rec.payload + 16, 4);
        report->reshard_cutovers.push_back(seen);
        break;  // a marker: carries migration evidence, no table state
      }
      case WalRecordType::kResizeBarrier:
      case WalRecordType::kCheckpointMark:
        break;  // markers carry no table state
    }
  }
  return Status::OK();
}

}  // namespace internal

/// Rebuilds a table from a checkpoint image and a WAL image (either may
/// be empty).  On success `*out` holds the recovered table and `*report`
/// describes the recovery.  Returns DataLoss when acknowledged bytes are
/// provably gone (WAL truncated past the base, LSN gap, mid-log
/// corruption, unreadable WAL header) and InvalidArgument when the WAL was
/// written for other key/value widths; a torn tail is NOT an error.
template <typename Key, typename Value>
Status Recover(const std::string& checkpoint_image,
               const std::string& wal_image, const DyCuckooOptions& options,
               std::unique_ptr<DynamicTable<Key, Value>>* out,
               RecoveryReport* report, const RecoverySource& source = {}) {
  using Table = DynamicTable<Key, Value>;
  *report = RecoveryReport{};
  report->shard_id = source.shard_id;
  report->segment = source.segment;
  out->reset();
  std::unique_ptr<Table> table;
  internal::PickBase(checkpoint_image, report,
                     [&](const char* data, size_t len) {
                       std::istringstream snap(std::string(data, len));
                       if (Table::Load(snap, options, &table).ok() &&
                           snap.peek() == std::char_traits<char>::eof()) {
                         return true;
                       }
                       table.reset();
                       return false;
                     });
  if (!table) DYCUCKOO_RETURN_NOT_OK(Table::Create(options, &table));
  Status st = internal::ReplaySuffix<Key, Value>(
      wal_image, report, [&](Key k, Value v) { return table->Insert(k, v); },
      [&](Key k) { (void)table->Erase(k); });
  if (st.ok()) *out = std::move(table);
  return st;
}

/// Re-derives the authoritative state of ONE key from the same walk as
/// Recover, without building a table: the base snapshot answers through
/// SnapshotFindKey, then the WAL records above it are folded for this key
/// (last action wins).  kUnreadable exactly when Recover fails on the same
/// images; `*value` is set on kFound.
template <typename Key, typename Value>
PointLookupResult PointLookup(const std::string& checkpoint_image,
                              const std::string& wal_image, Key key,
                              Value* value) {
  PointLookupResult result = PointLookupResult::kAbsent;
  Value v{};
  RecoveryReport report;
  internal::PickBase(checkpoint_image, &report,
                     [&](const char* data, size_t len) {
                       bool found = false;
                       if (!DynamicTable<Key, Value>::SnapshotFindKey(
                               data, len, key, &v, &found)) {
                         return false;
                       }
                       result = found ? PointLookupResult::kFound
                                      : PointLookupResult::kAbsent;
                       return true;
                     });
  Status st = internal::ReplaySuffix<Key, Value>(
      wal_image, &report,
      [&](Key k, Value val) {
        if (k == key) {
          result = PointLookupResult::kFound;
          v = val;
        }
        return Status::OK();
      },
      [&](Key k) {
        if (k == key) result = PointLookupResult::kErased;
      });
  if (!st.ok()) return PointLookupResult::kUnreadable;
  if (result == PointLookupResult::kFound && value != nullptr) *value = v;
  return result;
}

}  // namespace durability
}  // namespace dycuckoo

#endif  // DYCUCKOO_DURABILITY_RECOVERY_H_
