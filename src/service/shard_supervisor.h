// ShardSupervisor: the per-shard health state machine of a sharded
// deployment.
//
// Each shard is an independent fault domain; the supervisor decides —
// deterministically, on virtual time — what happens when one faults:
//
//   kServing     --(crash / DataLoss / unrecoverable fault)--> kQuarantined
//   kQuarantined --(heal due; recovery + scrub succeed)------> kServing
//   kQuarantined --(heal fails; attempts remain)-------------> kQuarantined
//                   (backoff doubles before the next attempt)
//   kQuarantined --(heal fails; attempts exhausted)----------> kFailed
//
// While quarantined, the shard's keys answer kUnavailable with a
// machine-readable retry-after hint; all other shards are undisturbed.
// A heal that succeeds bumps the shard's generation — responses from the
// pre-fault incarnation are fenced off by comparing generations, so a
// request admitted before the fault can never be acknowledged by state
// that recovery has since rewritten.
//
// The supervisor holds no table, clock, or durability references: it is a
// pure decision component the ShardedTableServer drives, and is testable
// in isolation.  Not thread-safe (driven by the one serving thread).

#ifndef DYCUCKOO_SERVICE_SHARD_SUPERVISOR_H_
#define DYCUCKOO_SERVICE_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dycuckoo {
namespace service {

enum class ShardState { kServing, kQuarantined, kFailed };

inline const char* ShardStateName(ShardState s) {
  switch (s) {
    case ShardState::kServing:
      return "serving";
    case ShardState::kQuarantined:
      return "quarantined";
    case ShardState::kFailed:
      return "failed";
  }
  return "unknown";
}

struct ShardSupervisorOptions {
  /// Virtual-clock ticks between quarantine and the first heal attempt;
  /// doubles after every failed attempt (a faulty segment store should
  /// not be hammered at full rate).
  uint64_t heal_backoff_ticks = 64;

  /// Heal attempts before the shard is declared kFailed (operator
  /// intervention required; its keys stay unavailable).
  int max_heal_attempts = 6;
};

class ShardSupervisor {
 public:
  ShardSupervisor(uint32_t num_shards, const ShardSupervisorOptions& options)
      : options_(options), shards_(num_shards) {}

  ShardState state(uint32_t shard) const { return shards_[shard].state; }
  bool serving(uint32_t shard) const {
    return shards_[shard].state == ShardState::kServing;
  }

  /// Generation of the shard's current incarnation; bumped by every
  /// successful heal.  Responses minted under an older generation are
  /// stale by definition.
  uint64_t generation(uint32_t shard) const {
    return shards_[shard].generation;
  }

  /// Why the shard was last quarantined (OK if it never was).
  const Status& fault(uint32_t shard) const { return shards_[shard].fault; }

  /// Outcome of the most recent heal attempt.
  const Status& last_heal_status(uint32_t shard) const {
    return shards_[shard].last_heal;
  }

  /// kServing -> kQuarantined.  Records the classifying fault and
  /// schedules the first heal attempt one backoff from `now`.  No-op when
  /// already quarantined or failed (the first fault classification wins).
  void Quarantine(uint32_t shard, uint64_t now, Status reason) {
    Shard& s = shards_[shard];
    if (s.state != ShardState::kServing) return;
    s.state = ShardState::kQuarantined;
    s.fault = std::move(reason);
    s.heal_attempts = 0;
    s.heal_not_before = now + options_.heal_backoff_ticks;
    ++quarantines_;
  }

  /// Operator-requested immediate heal: make the shard's next supervision
  /// pass attempt recovery regardless of the scheduled backoff.  No-op
  /// unless quarantined (a kFailed shard stays parked — re-quarantine it
  /// via operator tooling if its segments were repaired out of band).
  void RequestHealNow(uint32_t shard) {
    Shard& s = shards_[shard];
    if (s.state != ShardState::kQuarantined) return;
    s.heal_not_before = 0;
  }

  /// Whether a heal attempt should run at virtual time `now`.
  bool HealDue(uint32_t shard, uint64_t now) const {
    const Shard& s = shards_[shard];
    return s.state == ShardState::kQuarantined && now >= s.heal_not_before;
  }

  /// kQuarantined -> kServing: the heal recovered, scrubbed, and
  /// validated the shard.  Bumps the generation fence.
  void OnHealSuccess(uint32_t shard, uint64_t now) {
    Shard& s = shards_[shard];
    s.state = ShardState::kServing;
    s.last_heal = Status::OK();
    ++s.generation;
    s.healed_at = now;
    ++heals_;
  }

  /// A heal attempt failed: exponential backoff before the next one, or
  /// kFailed once attempts are exhausted.
  void OnHealFailure(uint32_t shard, uint64_t now, Status why) {
    Shard& s = shards_[shard];
    s.last_heal = std::move(why);
    ++s.heal_attempts;
    if (s.heal_attempts >= options_.max_heal_attempts) {
      s.state = ShardState::kFailed;
      return;
    }
    s.heal_not_before =
        now + (options_.heal_backoff_ticks << s.heal_attempts);
  }

  /// Machine-readable retry hint for a rejection at `now`: ticks until
  /// the next heal attempt could restore service (at least 1), or 0 for a
  /// kFailed shard (no automatic recovery is coming).
  uint64_t RetryAfterTicks(uint32_t shard, uint64_t now) const {
    const Shard& s = shards_[shard];
    if (s.state == ShardState::kFailed) return 0;
    if (s.heal_not_before > now) return s.heal_not_before - now;
    return 1;
  }

  /// Elastic resharding hooks: a split adds fault domains (born serving,
  /// generation 0), a finalized merge retires the drained source domains.
  /// Only ever called by ShardedTableServer with the physical slot count.
  void GrowTo(uint32_t num_shards) {
    if (num_shards > shards_.size()) shards_.resize(num_shards);
  }
  void ShrinkTo(uint32_t num_shards) {
    if (num_shards < shards_.size()) shards_.resize(num_shards);
  }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  uint64_t quarantines() const { return quarantines_; }
  uint64_t heals() const { return heals_; }
  uint32_t serving_count() const {
    uint32_t n = 0;
    for (const Shard& s : shards_) {
      if (s.state == ShardState::kServing) ++n;
    }
    return n;
  }

 private:
  struct Shard {
    ShardState state = ShardState::kServing;
    Status fault;
    Status last_heal;
    int heal_attempts = 0;
    uint64_t heal_not_before = 0;
    uint64_t generation = 0;
    uint64_t healed_at = 0;
  };

  ShardSupervisorOptions options_;
  std::vector<Shard> shards_;
  uint64_t quarantines_ = 0;
  uint64_t heals_ = 0;
};

}  // namespace service
}  // namespace dycuckoo

#endif  // DYCUCKOO_SERVICE_SHARD_SUPERVISOR_H_
