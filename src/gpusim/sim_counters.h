// Global profiling counters for the simulated device.
//
// These stand in for the GPU profiler (nvprof) used by the paper: they count
// atomic operations, lock conflicts, bucket (cache-line) transactions and
// cuckoo evictions.  Counters are process-global and relaxed; benches snapshot
// and diff them around a measured region.

#ifndef DYCUCKOO_GPUSIM_SIM_COUNTERS_H_
#define DYCUCKOO_GPUSIM_SIM_COUNTERS_H_

#include "common/counters.h"

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

/// Process-wide (Get()); Capture() before and after a measured region and
/// subtract the snapshots.
struct SimCounters {
  DYCUCKOO_COUNTERS(DYCUCKOO_SIM_COUNTERS)

  static SimCounters& Get();
};

inline void CountBucketRead() {
  SimCounters::Get().bucket_reads.fetch_add(1, std::memory_order_relaxed);
}
inline void CountBucketWrite() {
  SimCounters::Get().bucket_writes.fetch_add(1, std::memory_order_relaxed);
}
inline void CountEviction() {
  SimCounters::Get().evictions.fetch_add(1, std::memory_order_relaxed);
}
inline void CountLockConflict() {
  SimCounters::Get().lock_conflicts.fetch_add(1, std::memory_order_relaxed);
}
inline void CountChainNode() {
  SimCounters::Get().chain_nodes_visited.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace gpusim
}  // namespace dycuckoo

#endif  // DYCUCKOO_GPUSIM_SIM_COUNTERS_H_
