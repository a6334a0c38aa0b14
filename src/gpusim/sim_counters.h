// Profiling counters for the simulated device.
//
// These stand in for the GPU profiler (nvprof) used by the paper: they count
// atomic operations, lock conflicts, bucket (cache-line) transactions and
// cuckoo evictions.  nvprof observes from outside the kernel; to stay as
// close to that as a software counter can, every thread counts into a
// cache-line-aligned block of its own (SimCounters::Local()).  Only the
// owner writes a block, so an increment is a relaxed load and store: no
// lock-prefixed instruction and no cache line shared with another worker
// on the paths being measured.
//
// SimCounters::Get() is the process-wide view.  Its Capture() sums every
// thread's block and its Reset() zeroes them all; benches capture before
// and after a measured region and subtract the snapshots.  A field is
// exact when its writers are quiescent (for example after a launch joins).
//
// Blocks are never freed.  A thread takes a block on its first count; when
// the thread exits the block goes onto a free list and the next new thread
// takes it over with its counts intact, so totals never drop and memory is
// bounded by the peak number of threads.

#ifndef DYCUCKOO_GPUSIM_SIM_COUNTERS_H_
#define DYCUCKOO_GPUSIM_SIM_COUNTERS_H_

#include <memory>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dycuckoo {
namespace gpusim {

#define DYCUCKOO_SIM_COUNTERS(X)                                   \
  X(atomic_cas)                                                    \
  X(atomic_cas_failed)                                             \
  X(atomic_exch)                                                   \
  X(bucket_reads)        /* one per bucket (cache line) read */    \
  X(bucket_writes)       /* one per bucket write transaction */    \
  X(evictions)           /* cuckoo displacement events */          \
  X(lock_conflicts)      /* failed bucket-lock attempts */         \
  X(chain_nodes_visited) /* slab-list traversal hops */            \
  X(racecheck_findings)  /* distinct RaceCheck defects */

/// One thread's counters, padded to whole cache lines.
struct alignas(64) SimCounters {
  DYCUCKOO_COUNTERS(DYCUCKOO_SIM_COUNTERS)

  class Registry;

  /// The process-wide view over every thread's block.
  static Registry& Get();

  /// The calling thread's block.
  static SimCounters& Local() {
    SimCounters* block = local_;
    return block != nullptr ? *block : AttachThread();
  }

 private:
  static SimCounters& AttachThread();

  static inline thread_local SimCounters* local_ = nullptr;
};

/// Owns every block: hands them to threads, takes them back at thread
/// exit, and sums or zeroes them all.
class SimCounters::Registry {
 public:
  /// Sum of every block (exact for quiescent writers).
  Snapshot Capture() const;
  /// Zeroes every block; a write racing with it may survive.
  void Reset();

 private:
  friend struct SimCounters;

  SimCounters* Acquire();
  void Release(SimCounters* block);

  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<SimCounters>> blocks_ GUARDED_BY(mu_);
  std::vector<SimCounters*> free_ GUARDED_BY(mu_);
};

/// One more event on a counter of the calling thread's block.  The caller
/// owns the block, so no other thread writes the counter.
inline void Bump(Counter& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

inline void CountBucketRead() { Bump(SimCounters::Local().bucket_reads); }
inline void CountBucketWrite() { Bump(SimCounters::Local().bucket_writes); }
inline void CountEviction() { Bump(SimCounters::Local().evictions); }
inline void CountLockConflict() { Bump(SimCounters::Local().lock_conflicts); }
inline void CountChainNode() {
  Bump(SimCounters::Local().chain_nodes_visited);
}
inline void CountCas(bool won) {
  SimCounters& local = SimCounters::Local();
  Bump(local.atomic_cas);
  if (!won) Bump(local.atomic_cas_failed);
}
inline void CountExch() { Bump(SimCounters::Local().atomic_exch); }

}  // namespace gpusim
}  // namespace dycuckoo

#endif  // DYCUCKOO_GPUSIM_SIM_COUNTERS_H_
