#include "gpusim/sim_counters.h"

#include <utility>

namespace dycuckoo {
namespace gpusim {

SimCounters::Registry& SimCounters::Get() {
  static Registry* registry = new Registry();  // leaked: outlives statics
  return *registry;
}

SimCounters& SimCounters::AttachThread() {
  // Set once the thread's block went back to the free list.  A thread that
  // still counts after that (from a later thread_local destructor) gets a
  // block of its own that is never recycled.
  static thread_local bool lease_ended = false;
  struct Lease {
    ~Lease() {
      lease_ended = true;
      Get().Release(std::exchange(local_, nullptr));
    }
  };
  local_ = Get().Acquire();
  if (!lease_ended) {
    thread_local Lease lease;
  }
  return *local_;
}

SimCounters::Snapshot SimCounters::Registry::Capture() const {
  common::MutexLock lock(mu_);
  Snapshot total;
  for (const auto& block : blocks_) total += block->Capture();
  return total;
}

void SimCounters::Registry::Reset() {
  common::MutexLock lock(mu_);
  for (const auto& block : blocks_) block->Reset();
}

SimCounters* SimCounters::Registry::Acquire() {
  common::MutexLock lock(mu_);
  if (!free_.empty()) {
    SimCounters* block = free_.back();
    free_.pop_back();
    return block;
  }
  blocks_.push_back(std::make_unique<SimCounters>());
  return blocks_.back().get();
}

void SimCounters::Registry::Release(SimCounters* block) {
  common::MutexLock lock(mu_);
  free_.push_back(block);
}

}  // namespace gpusim
}  // namespace dycuckoo
