// Sharded durability: per-shard segment naming, the shard manifest, and
// parallel crash recovery.
//
// A sharded deployment (service/sharded_server.h) gives every shard its
// own WAL segment and checkpoint segment — independent fault domains: a
// torn flush or corrupt snapshot in shard k's segments cannot damage any
// other shard's durable state.  This header names those segments, ties
// them together with a small CRC-framed manifest, and recovers all N
// shards concurrently.
//
// Routing invariant (why the manifest exists): a key's shard is
// ShardRouter::ShardOf(key), a pure function of (key, num_shards,
// router_seed).  The WAL segments are only meaningful under the exact
// routing that wrote them — replaying shard 3's log into a deployment
// with a different shard count or router seed would re-home keys onto
// shards whose probes will never look for them.  The manifest records
// (num_shards, router_seed, key/value widths) so recovery can reject a
// mis-configured resurrection as InvalidArgument instead of silently
// scattering data.
//
// Parallel recovery: each shard's (checkpoint, WAL) pair is independent,
// so RecoverAllShards replays them on a bounded thread pool; it is the
// engine behind the one restart path, RecoverShardedDeployment.  Each
// shard's recovery is single-threaded internally and touches no shared
// mutable state, so per-shard reports are bit-identical to a serial
// replay — parallelism changes wall-clock, never outcomes.

#ifndef DYCUCKOO_DURABILITY_SHARDED_H_
#define DYCUCKOO_DURABILITY_SHARDED_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "durability/recovery.h"
#include "dycuckoo/dynamic_table.h"

namespace dycuckoo {
namespace durability {

// --- Segment naming --------------------------------------------------------

/// Fault-domain scope prefix for shard `shard_id`: "shard-00003/".  Used
/// as the DurabilityManager scope so kill points and I/O faults can be
/// targeted per shard (gpusim::FaultInjectorConfig::io_scope_filter /
/// kill_point_filter).
std::string ShardScope(uint32_t shard_id);

/// WAL segment name for one shard: "wal-00003-of-00016.seg".
std::string WalSegmentName(uint32_t shard_id, uint32_t num_shards);

/// Checkpoint segment name for one shard: "ckpt-00003-of-00016.seg".
std::string CheckpointSegmentName(uint32_t shard_id, uint32_t num_shards);

// --- Manifest --------------------------------------------------------------

inline constexpr uint64_t kShardManifestMagic = 0xD1C0CC00'5AAD1F37ULL;
/// v2 added the deployment generation and a total-length field (so a
/// truncated CRC trailer is classified precisely instead of surfacing as
/// a CRC mismatch).  v1 images are refused with a precise status: the
/// pre-generation era cannot prove which reshard epoch wrote its segments.
inline constexpr uint64_t kShardManifestVersion = 2;

struct ShardManifestEntry {
  uint32_t shard_id = 0;
  std::string wal_segment;
  std::string checkpoint_segment;
};

/// The one file that makes a pile of per-shard segments a deployment:
/// shard count, router identity, record widths, and each shard's segment
/// names.  Encoded with a magic, a version, and a CRC32 trailer so a torn
/// or corrupt manifest is detected, never trusted.
struct ShardManifest {
  uint32_t num_shards = 0;
  uint64_t router_seed = 0;
  uint32_t key_width = 0;
  uint32_t value_width = 0;
  /// Reshard generation: 0 for a fresh deployment, +1 per completed shard
  /// split/merge.  A mid-migration crash recovers against the OLD
  /// generation's manifest plus the migration journal (see ReshardJournal);
  /// the manifest is rewritten with generation+1 only when the migration
  /// finalizes.
  uint64_t generation = 0;
  std::vector<ShardManifestEntry> shards;

  /// A manifest with the conventional segment names for every shard.
  static ShardManifest Make(uint32_t num_shards, uint64_t router_seed,
                            uint32_t key_width, uint32_t value_width);

  std::string Encode() const;

  /// Decodes and CRC-verifies `image`.  DataLoss on corruption,
  /// InvalidArgument on a malformed (but intact) manifest.
  static Status Decode(const std::string& image, ShardManifest* out);

  /// The routing-invariant gate: recovery with a different shard count,
  /// router seed, or record width would mis-route every key.
  Status ValidateCompatible(uint32_t num_shards, uint64_t router_seed,
                            uint32_t key_width, uint32_t value_width) const;
};

// --- Migration journal -----------------------------------------------------

inline constexpr uint64_t kReshardJournalMagic = 0xD1C0CC00'6E4A11CEULL;
inline constexpr uint64_t kReshardJournalVersion = 1;

/// Hash-range chunks per shard of the larger generation.  The chunk count
/// of a migration is kReshardChunksPerShard * max(from, to); because the
/// two counts are in a 2x relation, that is a multiple of BOTH, which is
/// what makes two-generation routing refine the plain modulo map (see
/// service/shard_router.h).
inline constexpr uint32_t kReshardChunksPerShard = 8;

/// Where one migration chunk is in its copy -> cutover -> gc lifecycle.
/// Transitions are strictly forward and each is persisted to the journal
/// image before the next begins, so replaying the journal after a crash
/// lands on the exact chunk (and sub-step) in flight.
enum class ReshardChunkState : uint8_t {
  kPending = 0,  // lives on the source shard; old-generation routing
  kCopied = 1,   // copy durable on the target; routing still old
  kCutOver = 2,  // cutover records durable; routing new; source copy stale
  kDone = 3,     // stale source copy erased (logged); chunk fully migrated
};

/// The durable record of one in-flight shard split/merge.  Written before
/// the first chunk moves and rewritten at every chunk-state transition;
/// deleted only when the migration finalizes (manifest generation bump) or
/// rolls back.  Recovery combines it with kReshardCutover WAL evidence
/// (ResolveReshardJournal) to decide resume-vs-rollback deterministically.
struct ReshardJournal {
  uint64_t generation_from = 0;  // manifest generation being migrated away
  uint64_t router_seed = 0;
  uint32_t shards_from = 0;
  uint32_t shards_to = 0;   // == 2*shards_from (split) or shards_from/2
  uint32_t num_chunks = 0;  // kReshardChunksPerShard * max(from, to)
  std::vector<ReshardChunkState> chunks;

  /// A fresh all-pending journal for from -> to (counts must be in a 2x
  /// relation; the caller validates).
  static ReshardJournal Make(uint64_t generation_from, uint64_t router_seed,
                             uint32_t shards_from, uint32_t shards_to);

  /// Chunk -> shard maps for the two generations.  Every chunk lives
  /// wholly on one shard in each; chunks where the two agree migrate
  /// trivially (no data moves).
  uint32_t source_shard(uint32_t chunk) const { return chunk % shards_from; }
  uint32_t target_shard(uint32_t chunk) const { return chunk % shards_to; }

  /// Chunks migrate strictly in index order; this is the one in flight
  /// (== num_chunks when the migration is complete).
  uint32_t FirstIncomplete() const {
    for (uint32_t c = 0; c < num_chunks; ++c) {
      if (chunks[c] != ReshardChunkState::kDone) return c;
    }
    return num_chunks;
  }

  bool Complete() const { return FirstIncomplete() >= num_chunks; }

  /// True if any chunk's routing has switched to the new generation — the
  /// point of no (cheap) return: recovery must resume, not roll back.
  bool AnyCutOver() const {
    for (ReshardChunkState s : chunks) {
      if (s == ReshardChunkState::kCutOver || s == ReshardChunkState::kDone) {
        return true;
      }
    }
    return false;
  }

  std::string Encode() const;

  /// Decodes and CRC-verifies `image`.  DataLoss on corruption,
  /// InvalidArgument on a malformed (but intact) journal.
  static Status Decode(const std::string& image, ReshardJournal* out);
};

/// Promotes journal chunk states using kReshardCutover records replayed
/// from the shards' WAL segments.  Only a record durable in the chunk's
/// TARGET segment counts: the resharder flushes the chunk copy before it
/// appends any cutover record, so a target-side record proves the chunk's
/// data is fully on the target even if the journal write itself was lost.
/// (Source-side records exist for operator correlation; a stray source
/// record without its target twin proves nothing and is ignored.)
void ResolveReshardJournal(ReshardJournal* journal,
                           const std::vector<RecoveryReport>& reports);

// --- Parallel recovery -----------------------------------------------------

/// One shard's durable byte images, as a crash left them.
struct ShardImages {
  std::string checkpoint;
  std::string wal;
};

/// The result of recovering one shard.  `status` is per shard: one
/// poisoned segment yields one failed outcome while every other shard
/// recovers — the caller (ShardedTableServer::AdoptRecoveredSharded)
/// quarantines exactly the failed shards.
template <typename Key, typename Value>
struct ShardRecoveryOutcome {
  uint32_t shard_id = 0;
  Status status;
  std::unique_ptr<DynamicTable<Key, Value>> table;  // null when !status.ok()
  RecoveryReport report;
};

/// Replays all shards' (checkpoint, WAL) image pairs concurrently, at
/// most `max_parallel` at a time (0 = hardware concurrency).  `options`
/// holds each shard's table options (options[i] builds shard i).  Always
/// returns one outcome per shard, in shard order; a failed shard's
/// outcome carries the classifying status (e.g. DataLoss for mid-log
/// corruption) and a report identifying the damaged segment.
template <typename Key, typename Value>
std::vector<ShardRecoveryOutcome<Key, Value>> RecoverAllShards(
    const std::vector<ShardImages>& images,
    const std::vector<DyCuckooOptions>& options, int max_parallel = 0,
    const std::vector<RecoverySource>* sources = nullptr) {
  const uint32_t n = static_cast<uint32_t>(images.size());
  std::vector<ShardRecoveryOutcome<Key, Value>> outcomes(n);
  if (n == 0) return outcomes;
  unsigned workers = max_parallel > 0
                         ? static_cast<unsigned>(max_parallel)
                         : std::max(1u, std::thread::hardware_concurrency());
  if (workers > n) workers = n;

  auto recover_one = [&](uint32_t shard) {
    ShardRecoveryOutcome<Key, Value>& o = outcomes[shard];
    o.shard_id = shard;
    RecoverySource source;
    if (sources != nullptr) {
      source = (*sources)[shard];
    } else {
      source.shard_id = shard;
      source.segment = WalSegmentName(shard, n);
    }
    o.status = Recover<Key, Value>(images[shard].checkpoint,
                                   images[shard].wal, options[shard],
                                   &o.table, &o.report, source);
  };

  if (workers <= 1) {
    for (uint32_t s = 0; s < n; ++s) recover_one(s);
    return outcomes;
  }
  // Static round-robin sharding over the workers: outcome slots are
  // disjoint per thread, so no synchronization beyond join is needed and
  // every shard's replay is bit-identical to a serial run.
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w]() {
      for (uint32_t s = w; s < n; s += workers) recover_one(s);
    });
  }
  for (std::thread& t : pool) t.join();
  return outcomes;
}

// --- Deployment recovery (reshard-aware) -----------------------------------

/// Everything a restart learns from a deployment's durable state: the
/// decoded manifest, the resolved migration journal (if one was in
/// flight), the resume-vs-rollback decision, and one recovery outcome per
/// PHYSICAL shard slot (during a split that is more slots than the
/// manifest's old-generation count).
template <typename Key, typename Value>
struct ShardedDeploymentRecovery {
  ShardManifest manifest;
  ReshardJournal journal;   // meaningful iff mid_reshard
  bool mid_reshard = false;  // resume: some chunk already cut over
  bool rolled_back = false;  // journal discarded; stay at generation_from
  std::vector<ShardRecoveryOutcome<Key, Value>> outcomes;
};

/// The restart entry point: every sharded restart goes through here and
/// then ShardedTableServer::AdoptRecoveredSharded.  The manifest is
/// decoded and gated (ShardManifest::ValidateCompatible) before any
/// replay.  `journal_image` empty means no migration was running: one
/// image/options pair per manifest shard.  Otherwise `images`/`options`
/// must cover every PHYSICAL slot (max(shards_from, shards_to), in slot
/// order: the old generation's shards first, then — during a split — the
/// new ones), the journal is cross-checked against the manifest, every
/// slot is replayed, and the journal is resolved against target-side
/// kReshardCutover evidence.
///
/// The decision is deterministic: resume iff any chunk's routing switched
/// to the new generation (journal state or WAL evidence), else roll back.
/// Mixed-generation segment names are preserved: a split's new shards
/// keep their "of-<to>" names while the old generation keeps "of-<from>".
template <typename Key, typename Value>
Status RecoverShardedDeployment(
    const std::string& manifest_image, const std::string& journal_image,
    const std::vector<ShardImages>& images,
    const std::vector<DyCuckooOptions>& options, uint64_t router_seed,
    ShardedDeploymentRecovery<Key, Value>* out, int max_parallel = 0) {
  *out = ShardedDeploymentRecovery<Key, Value>{};
  DYCUCKOO_RETURN_NOT_OK(ShardManifest::Decode(manifest_image, &out->manifest));
  const ShardManifest& m = out->manifest;
  const ReshardJournal& j = out->journal;
  const bool migrating = !journal_image.empty();
  const uint32_t physical = static_cast<uint32_t>(images.size());
  // The manifest generation's shard count the images must match.
  uint32_t shards = physical;
  if (migrating) {
    DYCUCKOO_RETURN_NOT_OK(
        ReshardJournal::Decode(journal_image, &out->journal));
    if (j.generation_from != m.generation || j.shards_from != m.num_shards ||
        j.router_seed != m.router_seed) {
      return Status::InvalidArgument(
          "sharded recovery: migration journal does not belong to this "
          "manifest (journal generation " + std::to_string(j.generation_from) +
          "/" + std::to_string(j.shards_from) + " shards vs manifest " +
          std::to_string(m.generation) + "/" + std::to_string(m.num_shards) +
          ")");
    }
    if (physical != std::max(j.shards_from, j.shards_to)) {
      return Status::InvalidArgument(
          "sharded recovery: mid-migration restart needs one image pair per "
          "physical slot (" +
          std::to_string(std::max(j.shards_from, j.shards_to)) + ")");
    }
    shards = j.shards_from;
  }
  DYCUCKOO_RETURN_NOT_OK(m.ValidateCompatible(
      shards, router_seed, static_cast<uint32_t>(sizeof(Key)),
      static_cast<uint32_t>(sizeof(Value))));
  if (options.size() != physical) {
    return Status::InvalidArgument(
        "sharded recovery: one DyCuckooOptions per image pair required");
  }
  std::vector<RecoverySource> sources(physical);
  for (uint32_t s = 0; s < physical; ++s) {
    sources[s].shard_id = s;
    sources[s].segment = WalSegmentName(s, s < shards ? shards : physical);
  }
  out->outcomes = RecoverAllShards<Key, Value>(images, options, max_parallel,
                                               &sources);
  if (!migrating) return Status::OK();
  std::vector<RecoveryReport> reports;
  reports.reserve(physical);
  for (const ShardRecoveryOutcome<Key, Value>& o : out->outcomes) {
    if (o.status.ok()) reports.push_back(o.report);
  }
  ResolveReshardJournal(&out->journal, reports);
  if (out->journal.AnyCutOver()) {
    out->mid_reshard = true;
  } else {
    out->rolled_back = true;
  }
  return Status::OK();
}

}  // namespace durability
}  // namespace dycuckoo

#endif  // DYCUCKOO_DURABILITY_SHARDED_H_
