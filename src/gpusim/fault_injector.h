// Deterministic fault injection for the gpusim substrate.
//
// Real GPU deployments fail in ways a happy-path test never exercises:
// cudaMalloc returns cudaErrorMemoryAllocation mid-resize, warps are
// scheduled in adversarial orders, and lock acquisition loses far more
// often under contention than a single-threaded trace suggests.  The
// FaultInjector lets tests reach every one of those branches on demand,
// reproducibly: all decisions derive from Mix64(seed ^ event-counter), so
// a given (config, op sequence) always injects the same faults.
//
// The injector is installed process-globally (like a RaceCheck session) so
// the deepest substrate primitives — BucketLock::TryLock has no context
// pointer — can consult it without plumbing.  Use the RAII helper:
//
//   gpusim::FaultInjectorConfig cfg;
//   cfg.seed = 42;
//   cfg.alloc_fail_probability = 0.05;
//   cfg.alloc_tag_filter = "dycuckoo";
//   gpusim::ScopedFaultInjection scoped(cfg);
//   ... everything on this process now sees injected faults ...
//
// Hook points (all no-ops when no injector is installed):
//   - DeviceArena::Allocate     -> OnAllocation (fail Nth / every-kth /
//                                  probabilistic / per-tag)
//   - Grid worker loop          -> OnWarpStart (std::this_thread::yield to
//                                  widen race windows)
//   - BucketLock::TryLock       -> OnTryLock (forced acquisition failure)
//   - DynamicTable voter loop   -> ClampEvictionChain (truncate chains)

#ifndef DYCUCKOO_GPUSIM_FAULT_INJECTOR_H_
#define DYCUCKOO_GPUSIM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace dycuckoo {
namespace gpusim {

/// Configuration for one fault-injection campaign.  All knobs default to
/// "off"; any subset can be combined.
struct FaultInjectorConfig {
  /// Seed for every probabilistic decision.  Two runs with the same seed
  /// and the same event sequence inject identical faults.
  uint64_t seed = 0;

  // --- Allocation faults (DeviceArena::Allocate) ---------------------------

  /// Fail exactly the Nth matching allocation seen by this injector
  /// (0-based).  -1 disables.
  int64_t fail_nth_alloc = -1;

  /// Fail every matching allocation once `fail_after_allocs` of them have
  /// been observed (i.e. allocations [N, inf) all fail).  -1 disables.
  int64_t fail_after_allocs = -1;

  /// Fail every k-th matching allocation (k, 2k, 3k, ...).  0 disables.
  uint64_t fail_every_k_allocs = 0;

  /// Independently fail each matching allocation with this probability.
  double alloc_fail_probability = 0.0;

  /// Only allocations whose tag contains this substring are candidates for
  /// injected failure.  Empty matches every tag.
  std::string alloc_tag_filter;

  // --- Scheduling perturbation (Grid worker loop) --------------------------

  /// Probability that a worker yields the CPU before running a warp,
  /// shuffling warp interleavings to widen race windows.
  double warp_yield_probability = 0.0;

  // --- Lock faults (BucketLock::TryLock) -----------------------------------

  /// Probability that a TryLock that would have succeeded is forced to
  /// report failure (the CAS is not performed).  Clamped to 0.95: the voter
  /// loop revotes on lock failure, so probability 1.0 would livelock.
  double trylock_fail_probability = 0.0;

  // --- Eviction-chain truncation (DynamicTable voter loop) -----------------

  /// If >= 0, eviction chains are truncated to min(configured bound, this),
  /// forcing the stash / fail-buffer paths at otherwise-healthy fill.
  int max_eviction_chain = -1;

  // --- I/O faults (durability layer: WAL flushes, checkpoint writes) -------
  //
  // Each durable write (a WAL group commit or a checkpoint entry) consults
  // OnIoFlush() once and gets back one fault verdict.  kFailCleanly models
  // an fsync that returns an error with nothing written — retryable.  The
  // other three model a crash mid-write: the caller persists a prefix
  // (short: cut at a record boundary; torn: cut mid-record) or corrupted
  // bytes (bit flip) and then dies without acknowledging anything.

  /// Fail exactly the Nth durable flush cleanly (0-based; nothing written,
  /// error returned, process keeps running).  -1 disables.
  int64_t io_fail_nth_flush = -1;

  /// Independently fail each durable flush cleanly with this probability.
  double io_flush_fail_probability = 0.0;

  /// On the Nth durable flush, persist only a prefix ending at a record
  /// boundary, then crash.  -1 disables.
  int64_t io_short_write_at_flush = -1;

  /// On the Nth durable flush, persist a prefix torn mid-record, then
  /// crash.  -1 disables.
  int64_t io_torn_write_at_flush = -1;

  /// On the Nth durable flush, persist the full write with one bit flipped
  /// in its final record, then crash.  -1 disables.
  int64_t io_bit_flip_at_flush = -1;

  /// Only durable flushes whose scope contains this substring are
  /// candidates for the io_* faults above, and only they advance the
  /// "Nth flush" counter (mirroring alloc_tag_filter).  Writers in a
  /// sharded deployment pass their segment scope (e.g. "shard-00003/"),
  /// so a chaos campaign can fault exactly one shard's WAL / checkpoint
  /// stream while every other shard's I/O proceeds cleanly.  Empty
  /// matches every flush, including unscoped ones.
  std::string io_scope_filter;

  // --- Device-memory faults (DeviceArena::InjectMemoryFaults) --------------
  //
  // Silent data corruption: a host-driven sweep over the arena's live
  // allocations plants seeded bit flips or stuck-at faults directly in the
  // simulated device memory, modelling the DRAM/SRAM upsets a real GPU
  // fleet sees.  Sweeps are deterministic: allocation order (a monotonic
  // sequence number) plus NextDraw(stream=8) fully determine which bytes
  // are hit, so a failing chaos seed replays bit-identically.

  /// Faults planted per InjectMemoryFaults() sweep.  0 disables the sweep
  /// entirely (it returns without touching memory or counters).
  int mem_faults_per_sweep = 0;

  /// Bits affected per fault (consecutive, within one allocation).  1 is a
  /// classic single-event upset; >1 models multi-bit corruption.
  int mem_bits_per_fault = 1;

  /// -1 => flip each targeted bit; 0/1 => force it to that value
  /// (stuck-at-0 / stuck-at-1).  A stuck-at fault whose target already
  /// holds the value is *seen* but not *injected* (no byte changed).
  int mem_stuck_at = -1;

  /// Only allocations whose tag contains this substring are part of the
  /// sweep's target region; non-matching allocations are invisible (they
  /// neither receive faults nor shift the deterministic byte draws),
  /// mirroring alloc_tag_filter / io_scope_filter.  Shard memory tags are
  /// ShardScope-prefixed, so a campaign can corrupt exactly one shard.
  std::string mem_tag_filter;

  // --- Kill points (durability layer: crash-at-step) -----------------------

  /// Crash the process (as seen by the durability layer: everything in
  /// flight is abandoned, only already-durable bytes survive) at the Nth
  /// crossing of a matching kill point (0-based).  -1 disables.
  int64_t kill_at_point = -1;

  /// Only kill points whose name contains this substring count toward
  /// `kill_at_point`.  Empty matches every kill point.
  std::string kill_point_filter;
};

/// Verdict for one durable write, from FaultInjector::OnIoFlush().
enum class IoWriteFault {
  kNone = 0,         // write succeeds in full
  kFailCleanly = 1,  // nothing written, error returned; retryable
  kShortWrite = 2,   // prefix persisted (record boundary), then crash
  kTornWrite = 3,    // prefix persisted (mid-record), then crash
  kBitFlip = 4,      // full write persisted with a flipped bit, then crash
};

/// \brief Seeded deterministic fault source.  Thread-safe; every decision
/// advances an atomic event counter that feeds Mix64, so concurrent warps
/// draw distinct, reproducible-in-aggregate decisions.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectorConfig& config);

  /// The installed injector, or nullptr.  Lock-free; called on every
  /// allocation / lock attempt, so keep it a single atomic load.
  static FaultInjector* Active() {
    return active_.load(std::memory_order_acquire);
  }

  /// Consulted by DeviceArena::Allocate.  True => the arena must behave as
  /// if exhausted (return nullptr without allocating).
  bool OnAllocation(size_t bytes, const std::string& tag);

  /// Consulted by Grid workers before each warp body; yields the thread
  /// with `warp_yield_probability`.
  void OnWarpStart(uint64_t warp_id);

  /// Consulted by BucketLock::TryLock.  True => report acquisition failure
  /// without attempting the CAS.
  bool OnTryLock();

  /// Truncates an eviction-chain bound.
  int ClampEvictionChain(int configured_bound) const;

  /// Consulted once per durable write (WAL group commit / checkpoint
  /// entry).  The caller is responsible for realizing the verdict: persist
  /// a prefix, corrupt a bit, or return an error — and for treating every
  /// verdict except kNone/kFailCleanly as a process crash.  `scope` names
  /// the stream being flushed (a shard's segment scope; nullptr or "" for
  /// an unscoped writer) and is matched against io_scope_filter.
  IoWriteFault OnIoFlush(const char* scope = nullptr);

  /// Consulted at each named crash point in the durability layer.  True =>
  /// the caller must behave as if the process died here: persist nothing
  /// further and stop acknowledging.
  bool OnKillPoint(const char* name);

  /// Deterministic 64-bit draw for fault shaping (e.g. where to tear a
  /// record).  Same event sequence => same draws.
  uint64_t NextDraw(uint64_t stream);

  /// Whether InjectMemoryFaults sweeps should run at all.
  bool MemoryFaultsEnabled() const { return config_.mem_faults_per_sweep > 0; }

  /// Whether an allocation with `tag` is inside the memory-fault target
  /// region (substring match against mem_tag_filter; empty matches all).
  bool MemoryTagMatches(const std::string& tag) const {
    return config_.mem_tag_filter.empty() ||
           tag.find(config_.mem_tag_filter) != std::string::npos;
  }

  /// Bookkeeping for one planted fault: `changed` is whether any byte was
  /// actually modified (a stuck-at fault can be a no-op).  Called by
  /// DeviceArena::InjectMemoryFaults, once per planted fault.
  void CountMemoryFault(bool changed) {
    memory_faults_seen_.fetch_add(1, std::memory_order_relaxed);
    if (changed) {
      memory_faults_injected_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const FaultInjectorConfig& config() const { return config_; }

  // --- Campaign statistics (what was actually injected) --------------------
  uint64_t allocations_seen() const {
    return allocs_seen_.load(std::memory_order_relaxed);
  }
  uint64_t allocations_failed() const {
    return allocs_failed_.load(std::memory_order_relaxed);
  }
  uint64_t warps_delayed() const {
    return warps_delayed_.load(std::memory_order_relaxed);
  }
  uint64_t trylock_failures() const {
    return trylock_failures_.load(std::memory_order_relaxed);
  }
  uint64_t io_flushes_seen() const {
    return io_flushes_seen_.load(std::memory_order_relaxed);
  }
  uint64_t io_faults_injected() const {
    return io_faults_injected_.load(std::memory_order_relaxed);
  }
  uint64_t memory_faults_seen() const {
    return memory_faults_seen_.load(std::memory_order_relaxed);
  }
  uint64_t memory_faults_injected() const {
    return memory_faults_injected_.load(std::memory_order_relaxed);
  }
  uint64_t kill_points_seen() const {
    return kill_points_seen_.load(std::memory_order_relaxed);
  }
  uint64_t kill_points_fired() const {
    return kill_points_fired_.load(std::memory_order_relaxed);
  }

 private:
  friend class ScopedFaultInjection;

  /// Deterministic uniform draw in [0, 1) for the next event in `stream`.
  double NextUniform(uint64_t stream);

  static std::atomic<FaultInjector*> active_;

  FaultInjectorConfig config_;
  std::atomic<uint64_t> events_{0};        // feeds Mix64 decisions
  std::atomic<uint64_t> allocs_seen_{0};   // matching allocations observed
  std::atomic<uint64_t> allocs_failed_{0};
  std::atomic<uint64_t> warps_delayed_{0};
  std::atomic<uint64_t> trylock_failures_{0};
  std::atomic<uint64_t> io_flushes_seen_{0};
  std::atomic<uint64_t> io_faults_injected_{0};
  std::atomic<uint64_t> memory_faults_seen_{0};
  std::atomic<uint64_t> memory_faults_injected_{0};
  std::atomic<uint64_t> kill_points_seen_{0};
  std::atomic<uint64_t> kill_points_fired_{0};
};

/// \brief RAII guard: installs a FaultInjector for its lifetime.  Nesting is
/// supported (the previous injector is restored on destruction), but only
/// the innermost injector is consulted.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultInjectorConfig& config);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
  FaultInjector* previous_;
};

}  // namespace gpusim
}  // namespace dycuckoo

#endif  // DYCUCKOO_GPUSIM_FAULT_INJECTOR_H_
