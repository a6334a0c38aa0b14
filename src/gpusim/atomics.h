// CUDA-style atomic operations over std::atomic storage.
//
// Semantics follow the CUDA C Programming Guide exactly (and the paper's
// "Implementation Details" paragraph):
//
//   atomicCAS(address, compare, val): old = *address;
//       *address = (old == compare) ? val : old;  return old;
//   atomicExch(address, val): old = *address; *address = val; return old;
//
// Every CAS and exchange is counted in the calling thread's SimCounters
// block (a plain owner-only increment, no extra atomic RMW), so the bench
// harness can reproduce the paper's Figure 5 (atomic throughput collapse
// under conflicts) and count lock conflicts in the voter scheme.
//
// When a RaceCheck session is installed, every atomic is additionally a
// synchronization event: the release half publishes the warp's vector
// clock to the word *before* the hardware op, the acquire half joins the
// word's clock back *after* it, so a real release/acquire pair always
// yields a happens-before edge (a failed CAS over-approximates — it still
// publishes — which can only suppress reports, never invent them).

#ifndef DYCUCKOO_GPUSIM_ATOMICS_H_
#define DYCUCKOO_GPUSIM_ATOMICS_H_

#include <atomic>
#include <cstdint>

#include "gpusim/fault_injector.h"
#include "gpusim/racecheck.h"
#include "gpusim/sim_counters.h"

namespace dycuckoo {
namespace gpusim {

/// atomicCAS with CUDA return-old semantics.
inline uint32_t AtomicCas(std::atomic<uint32_t>* address, uint32_t compare,
                          uint32_t val) {
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnAtomicRelease(address);
  uint32_t expected = compare;
  bool won =
      address->compare_exchange_strong(expected, val, std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  CountCas(won);
  if (rc != nullptr) rc->OnAtomicAcquire(address, sizeof(uint32_t));
  return won ? compare : expected;
}

/// atomicExch with CUDA return-old semantics.
inline uint32_t AtomicExch(std::atomic<uint32_t>* address, uint32_t val) {
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnAtomicRelease(address);
  CountExch();
  uint32_t old = address->exchange(val, std::memory_order_acq_rel);
  if (rc != nullptr) rc->OnAtomicAcquire(address, sizeof(uint32_t));
  return old;
}

/// 64-bit atomicCAS (packed KV transactions in the baselines).
inline uint64_t AtomicCas64(std::atomic<uint64_t>* address, uint64_t compare,
                            uint64_t val) {
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnAtomicRelease(address);
  uint64_t expected = compare;
  bool won =
      address->compare_exchange_strong(expected, val, std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  CountCas(won);
  if (rc != nullptr) rc->OnAtomicAcquire(address, sizeof(uint64_t));
  return won ? compare : expected;
}

/// 64-bit atomicExch.
inline uint64_t AtomicExch64(std::atomic<uint64_t>* address, uint64_t val) {
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnAtomicRelease(address);
  CountExch();
  uint64_t old = address->exchange(val, std::memory_order_acq_rel);
  if (rc != nullptr) rc->OnAtomicAcquire(address, sizeof(uint64_t));
  return old;
}

/// atomicAdd (used for size counters and residual-buffer cursors).
inline uint64_t AtomicAdd(std::atomic<uint64_t>* address, uint64_t val) {
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnAtomicRelease(address);
  uint64_t old = address->fetch_add(val, std::memory_order_acq_rel);
  if (rc != nullptr) rc->OnAtomicAcquire(address, sizeof(uint64_t));
  return old;
}

/// Generic success/failure CAS over any word-sized slot type (key slots in
/// the cuckoo table, stash entries).  Same counters and synchronization
/// hooks as the CUDA-shaped wrappers above.
template <typename T>
inline bool AtomicCasWord(std::atomic<T>* address, T expected, T desired) {
  static_assert(sizeof(T) <= 8, "CAS operand wider than a device word");
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnAtomicRelease(address);
  bool won = address->compare_exchange_strong(expected, desired,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire);
  CountCas(won);
  if (rc != nullptr) rc->OnAtomicAcquire(address, sizeof(T));
  return won;
}

/// Generic atomicExch over any word-sized slot type, returning the old
/// value.  The integrity-tag maintenance in the cuckoo table depends on
/// this returning the *true* prior word: the tag delta applied for a store
/// is FK(old) ^ FK(new), and only an atomic exchange observes `old`
/// without a window in which another writer's store could be lost from
/// the delta chain.
template <typename T>
inline T AtomicExchWord(std::atomic<T>* address, T val) {
  static_assert(sizeof(T) <= 8, "exchange operand wider than a device word");
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnAtomicRelease(address);
  CountExch();
  T old = address->exchange(val, std::memory_order_acq_rel);
  if (rc != nullptr) rc->OnAtomicAcquire(address, sizeof(T));
  return old;
}

/// \brief Per-bucket spinlock in the exact idiom of the paper:
/// lock with atomicCAS(&lock, 0, 1), unlock with atomicExch(&lock, 0).
class BucketLock {
 public:
  BucketLock() : word_(0) {}

  // Lock words live in arrays that are resized by table maintenance; they are
  // never copied while contended.
  BucketLock(const BucketLock&) : word_(0) {}
  BucketLock& operator=(const BucketLock&) { return *this; }

  /// Single attempt; true iff the lock was acquired.  An installed fault
  /// injector may force a failure report (as if another warp held the
  /// lock) to stress the caller's revote / retry path.
  bool TryLock() {
    if (FaultInjector* injector = FaultInjector::Active()) {
      if (injector->OnTryLock()) {
        CountLockConflict();
        return false;
      }
    }
    bool acquired = AtomicCas(&word_, 0, 1) == 0;
    if (acquired) {
      // Lockset membership only; the happens-before edge already flowed
      // through the CAS on word_ above.
      if (RaceCheck* rc = RaceCheck::Active()) rc->OnLockAcquire(this);
    }
    return acquired;
  }

  void Unlock() {
    // Leave the lockset before the exchange publishes the lock as free.
    if (RaceCheck* rc = RaceCheck::Active()) rc->OnLockRelease(this);
    AtomicExch(&word_, 0);
  }

  bool IsLocked() const {
    return word_.load(std::memory_order_acquire) != 0;
  }

 private:
  std::atomic<uint32_t> word_;
};

}  // namespace gpusim
}  // namespace dycuckoo

#endif  // DYCUCKOO_GPUSIM_ATOMICS_H_
