// TableServer: the overload-safe serving front-end over DynamicTable.
//
// Callers hitting DynamicTable::Bulk* directly get no admission control,
// no deadlines, and no retry policy — a hot resize or an injected fault
// stalls or fails them outright.  The TableServer wraps the table with the
// contract a production service needs:
//
//  * Bounded admission (AdmissionQueue): Submit never buffers without
//    bound; a full queue is an explicit kResourceExhausted.
//  * Micro-batching: queued requests are coalesced (up to max_batch_ops
//    operations) into one mixed grid launch per Step, amortizing launch
//    overhead exactly like the paper's batched execution model.
//  * Deadlines on the deterministic virtual clock: a request carries an
//    absolute tick deadline; expiry yields kDeadlineExceeded at admission,
//    at dequeue, or between retry attempts — never a silent drop and never
//    an unbounded stall.  An in-flight grid launch is not preempted
//    (kernels run to completion), matching GPU semantics.
//  * Retry with seeded exponential backoff + jitter (RetryPolicy) for
//    transient failures; backoff advances the virtual clock, so deadlines
//    keep ticking while a request waits.
//  * A circuit breaker (CircuitBreaker) that flips the server into
//    read-only degraded mode after consecutive terminal write failures and
//    auto-recovers via a probe write after a cooldown.
//  * An online invariant scrubber (OnlineScrubber) walking a bounded slice
//    of buckets between batches, repairing placement violations and
//    triggering bounds maintenance when theta drifts outside [alpha, beta].
//
// Side-effect contract per response status (what a shadow-map test may
// assume):
//   kResourceExhausted / kUnavailable .... request never executed
//   kDeadlineExceeded with attempts == 0 . request never executed
//   kDeadlineExceeded with attempts > 0 .. earlier attempts may have
//                                          partially applied (idempotent
//                                          upserts/erases: re-execution safe)
//   kInsertionFailure / kOutOfMemory ..... partially applied; failed count
//                                          refers to this request's keys
//   kDataLoss ............................ applied to the table but NOT
//                                          durable (group-commit flush
//                                          failed); lost if the process
//                                          dies before a later flush
//   OK ................................... fully applied (and durable when
//                                          a DurabilityManager is attached:
//                                          the ack is released only after
//                                          the WAL group commit)
//
// Consistency (see docs/robustness.md "Consistency guarantees"): requests
// coalesced into one micro-batch execute concurrently in a single mixed
// grid launch, and the table's FIND-under-INSERT guarantee carries through
// to responses: a key whose INSERT this server acknowledged (response OK
// or kDataLoss) in an *earlier* batch, and whose DELETE it has not, is hit
// by every subsequent FIND — even while inserts coalesced into the same
// micro-batch displace pairs around it (the eviction handoff ring keeps
// displaced victims reader-visible at every instant).  A FIND coalesced
// into the same batch as an INSERT/DELETE of its key is concurrent with
// it and may observe either side.  Value reads are last-writer-wins when
// an upsert of a key races a displacement of that key within one batch;
// membership is always linearizable.
//
// Durability: AttachDurability() hooks a durability::DurabilityManager in.
// Each micro-batch's acknowledged writes are appended to the WAL and
// flushed with ONE group commit before any of the batch's responses are
// completed; the between-batch slot additionally takes incremental
// checkpoints.  A crash-style injected fault marks the server crashed():
// it stops executing and never acknowledges in-flight requests — exactly
// what a real process death would do.  Recovery is durability::Recover().
//
// Threading: Submit/TakeResponse are safe from any thread; Step (and
// everything it drives) runs on one serving thread, mirroring the one-
// host-thread-per-table contract of DynamicTable.

#ifndef DYCUCKOO_SERVICE_TABLE_SERVER_H_
#define DYCUCKOO_SERVICE_TABLE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/manager.h"
#include "dycuckoo/dynamic_table.h"
#include "dycuckoo/options.h"
#include "gpusim/virtual_clock.h"
#include "service/admission_queue.h"
#include "service/circuit_breaker.h"
#include "service/retry_policy.h"
#include "service/scrubber.h"

namespace dycuckoo {
namespace service {

#define DYCUCKOO_SERVER_STATS_COUNTERS(X)                                 \
  X(submitted)                                                            \
  X(admitted)                                                             \
  X(rejected_queue_full)                                                  \
  X(rejected_deadline)             /* at submit, dequeue or retry */      \
  X(rejected_unavailable)                                                 \
  X(completed_ok)                                                         \
  X(completed_error)               /* terminal non-OK executions */       \
  X(batch_launches)                /* coalesced BulkExecute calls */      \
  X(coalesced_fallbacks)           /* batches re-run per request */       \
  X(retries)                       /* re-executions beyond first */       \
  X(backoff_ticks_slept)                                                  \
  X(scrub_steps)                                                          \
  X(scrub_resizes)                 /* bounds repairs it triggered */      \
  /* Silent-corruption escalation (see docs/robustness.md): slots whose   \
     integrity tag mismatched, how many were resolved from durable state  \
     (re-published from the WAL/checkpoint, or confirmed erased), and how \
     many could not be — each of the latter trips the breaker and sets   \
     the sticky integrity_compromised() flag. */                          \
  X(scrub_corruption_detected)                                            \
  X(scrub_corruption_repaired)                                            \
  X(scrub_corruption_unrepairable)

/// Server-side counters (all monotonic; Capture() for a coherent-enough
/// snapshot — same relaxed contract as TableStats).
struct ServerStats {
  DYCUCKOO_COUNTERS(DYCUCKOO_SERVER_STATS_COUNTERS)
};

/// Serving-layer knobs (all bounds are hard, never best-effort).
struct TableServerOptions {
  /// Maximum queued (admitted, not yet executed) requests.
  uint64_t queue_capacity = 256;

  /// Operation budget per micro-batch: Step dequeues whole requests until
  /// their combined op count reaches this (a single oversized request
  /// still runs, alone).
  uint64_t max_batch_ops = 4096;

  /// Default deadline as a relative tick budget applied at Submit when the
  /// request carries none.  0 means no default (wait forever).
  uint64_t default_deadline_ticks = 0;

  RetryPolicy retry;
  CircuitBreakerOptions breaker;

  /// Buckets verified by the online scrubber after each batch (0 disables
  /// inline scrubbing).
  uint64_t scrub_buckets_per_step = 0;

  /// Let a scrub slice that finds theta outside [alpha, beta] trigger
  /// ResizeToBounds().
  bool resize_on_scrub_violation = true;
};

template <typename Key, typename Value>
class TableServer {
 public:
  using Table = DynamicTable<Key, Value>;
  using MixedOp = typename Table::MixedOp;
  using OpType = typename Table::MixedOp::Type;

  /// One operation of a request.
  struct Op {
    OpType type = OpType::kFind;
    Key key{};
    Value value{};
  };

  /// Per-op outcome (valid only when the response status is OK or a
  /// partial-failure code; see the side-effect contract above).
  struct OpResult {
    uint8_t hit = 0;   ///< find located / erase removed the key
    Value value{};     ///< find output
  };

  struct Request {
    std::vector<Op> ops;
    /// Absolute virtual-clock deadline; 0 means none (or the server
    /// default, applied at Submit).
    uint64_t deadline = 0;
  };

  struct Response {
    Status status;
    std::vector<OpResult> results;  ///< one per op when executed
    uint32_t attempts = 0;          ///< executions of this request's ops
    uint64_t completed_at = 0;      ///< virtual time of completion
  };

  /// Builds a server owning a fresh table.
  static Status Create(const DyCuckooOptions& table_options,
                       const TableServerOptions& server_options,
                       std::unique_ptr<TableServer>* out) {
    std::unique_ptr<Table> table;
    DYCUCKOO_RETURN_NOT_OK(Table::Create(table_options, &table));
    out->reset(new TableServer(std::move(table), server_options));
    return Status::OK();
  }

  /// Builds a server around an existing table — the resumption path after
  /// durability::Recover() hands back the recovered state.
  static Status Adopt(std::unique_ptr<Table> table,
                      const TableServerOptions& server_options,
                      std::unique_ptr<TableServer>* out) {
    if (table == nullptr) {
      return Status::InvalidArgument("Adopt: table must not be null");
    }
    out->reset(new TableServer(std::move(table), server_options));
    return Status::OK();
  }

  /// Attaches (or detaches, with nullptr) the durability manager.  Not
  /// owned; must outlive the server.  Attach before serving traffic —
  /// writes acknowledged earlier are not retroactively logged.
  void AttachDurability(durability::DurabilityManager<Key, Value>* manager) {
    durability_ = manager;
  }

  /// True once the durability layer took a crash-style injected fault: the
  /// server stops executing and never acknowledges in-flight requests.
  bool crashed() const { return durability_ != nullptr && durability_->dead(); }

  /// Sticky: true once a scrub slice found corruption this server could not
  /// repair from durable state (no durability attached, the key is absent
  /// from / unreadable in the durable images, or the corruption destroyed
  /// the key so there is nothing to look up).  The write path is already
  /// breaker-open by the time this reads true; a supervisor should
  /// quarantine the shard and rebuild it from durability::Recover().
  bool integrity_compromised() const { return integrity_compromised_; }

  /// Drives this server from a caller-owned clock instead of its own —
  /// how a sharded deployment keeps every shard on ONE virtual timeline
  /// (deadlines, breaker cooldowns, and checkpoint cadence stay globally
  /// comparable).  Call before serving traffic; `clock` must outlive the
  /// server.  Passing nullptr reverts to the internal clock.
  void UseExternalClock(gpusim::VirtualClock* clock) {
    clock_ = clock != nullptr ? clock : &own_clock_;
  }

  /// Puts the write path into half-open probation: the next write is a
  /// single probe through the circuit breaker, and only its success
  /// restores full write admission.  The re-admission path for a shard
  /// that just self-healed from recovery.
  void BeginWriteProbation() { breaker_.ForceProbation(clock_->Now()); }

  TableServer(const TableServer&) = delete;
  TableServer& operator=(const TableServer&) = delete;

  // ---------------------------------------------------------------------
  // Client side (any thread).
  // ---------------------------------------------------------------------

  /// Admits a request.  Always assigns an id and guarantees a response
  /// will be retrievable for it: immediate rejections (queue full, dead
  /// on arrival) are completed right here with the rejecting status.
  uint64_t Submit(Request request) {
    uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);
    if (request.deadline == 0 && options_.default_deadline_ticks > 0) {
      request.deadline = clock_->Now() + options_.default_deadline_ticks;
    }
    if (request.deadline != 0 && clock_->Now() > request.deadline) {
      stats_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
      Complete(id, Response{Status::DeadlineExceeded(
                                "deadline passed before admission"),
                            {}, 0, clock_->Now()});
      return id;
    }
    Status st = queue_.Push(Pending{id, std::move(request)});
    if (!st.ok()) {
      stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      Complete(id, Response{std::move(st), {}, 0, clock_->Now()});
      return id;
    }
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  /// Retrieves (and removes) the response for `id`; false if not completed
  /// yet.  Responses are held until taken — a client that never takes them
  /// should bound its in-flight ids.
  bool TakeResponse(uint64_t id, Response* out) {
    common::MutexLock lock(responses_mu_);
    auto it = responses_.find(id);
    if (it == responses_.end()) return false;
    *out = std::move(it->second);
    responses_.erase(it);
    return true;
  }

  uint64_t queued() const { return queue_.size(); }
  uint64_t completed_pending_take() const {
    common::MutexLock lock(responses_mu_);
    return responses_.size();
  }

  // ---------------------------------------------------------------------
  // Serving side (one thread).
  // ---------------------------------------------------------------------

  /// Executes one micro-batch plus one scrub slice.  Returns the number of
  /// requests it completed (0 when idle).
  uint64_t Step() {
    if (crashed()) return 0;
    gpusim::ScopedVirtualClock scoped(clock_);
    std::vector<Pending> batch;
    uint64_t ops = 0;
    while (ops < options_.max_batch_ops) {
      Pending p;
      if (!queue_.Pop(&p)) break;
      ops += p.request.ops.size();
      batch.push_back(std::move(p));
    }
    uint64_t completed = 0;
    if (!batch.empty()) completed = ExecuteBatch(&batch);
    if (crashed()) return completed;
    ScrubSlice();
    MaybeCheckpoint();
    return completed;
  }

  /// Steps until the queue is empty (or the durability layer crashed — a
  /// dead server would otherwise spin on a queue it can never drain).
  void RunUntilIdle() {
    while (!queue_.empty() && !crashed()) Step();
  }

  // ---------------------------------------------------------------------
  // Introspection.
  // ---------------------------------------------------------------------

  Table* table() { return table_.get(); }
  const Table* table() const { return table_.get(); }
  gpusim::VirtualClock* clock() { return clock_; }
  uint64_t now() const { return clock_->Now(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  bool read_only() const { return breaker_.read_only(); }
  const ServerStats& stats() const { return stats_; }
  const TableServerOptions& options() const { return options_; }
  const OnlineScrubber<Key, Value>& scrubber() const { return scrubber_; }
  durability::DurabilityManager<Key, Value>* durability() {
    return durability_;
  }

  /// Releases the owned table — for tearing a crashed server down while
  /// keeping its live state inspectable (tests).
  std::unique_ptr<Table> ReleaseTable() { return std::move(table_); }

 private:
  struct Pending {
    uint64_t id = 0;
    Request request;
  };

  TableServer(std::unique_ptr<Table> table,
              const TableServerOptions& options)
      : options_(options),
        table_(std::move(table)),
        queue_(options.queue_capacity),
        breaker_(options.breaker),
        scrubber_(table_.get()) {}

  static bool HasWrite(const Request& r) {
    for (const Op& op : r.ops) {
      if (op.type != OpType::kFind) return true;
    }
    return false;
  }

  bool Expired(const Request& r) const {
    return r.deadline != 0 && clock_->Now() > r.deadline;
  }

  void Complete(uint64_t id, Response response) {
    common::MutexLock lock(responses_mu_);
    responses_.emplace(id, std::move(response));
  }

  /// Triage + coalesced fast path + per-request fallback.
  uint64_t ExecuteBatch(std::vector<Pending>* batch) {
    uint64_t completed = 0;
    std::vector<Pending> runnable;
    runnable.reserve(batch->size());
    for (Pending& p : *batch) {
      if (Expired(p.request)) {
        stats_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
        Complete(p.id, Response{Status::DeadlineExceeded(
                                    "deadline passed while queued"),
                                {}, 0, clock_->Now()});
        ++completed;
      } else if (HasWrite(p.request) && !breaker_.AllowWrite(clock_->Now())) {
        stats_.rejected_unavailable.fetch_add(1, std::memory_order_relaxed);
        Complete(p.id,
                 Response{Status::Unavailable(
                              "server degraded to read-only (breaker " +
                              std::string(CircuitBreaker::StateName(
                                  breaker_.state())) +
                              ")"),
                          {}, 0, clock_->Now()});
        ++completed;
      } else {
        runnable.push_back(std::move(p));
      }
    }
    if (runnable.empty()) return completed;

    // Coalesced fast path: every runnable request's ops in one launch.
    std::vector<MixedOp> ops;
    for (const Pending& p : runnable) {
      for (const Op& op : p.request.ops) {
        ops.push_back(MixedOp{op.type, op.key, op.value, 0});
      }
    }
    stats_.batch_launches.fetch_add(1, std::memory_order_relaxed);
    Status st = table_->BulkExecute(ops);
    if (st.ok()) {
      // Group commit: append every acknowledged-to-be write to the WAL and
      // flush ONCE for the whole micro-batch, before any ack is released.
      Status commit = LogAndCommitWrites(runnable);
      if (crashed()) return completed;  // simulated death: acks never leave
      const MixedOp* results = ops.data();
      for (Pending& p : runnable) {
        Respond(p, HasWrite(p.request) ? commit : Status::OK(),
                /*attempts=*/1, results);
        results += p.request.ops.size();
        ++completed;
      }
      return completed;
    }

    // Slow path: the coalesced batch failed, so outcomes cannot be
    // attributed across requests.  Re-run each request alone (all ops are
    // idempotent upserts/reads/deletes, so re-execution is safe) with the
    // retry policy; the coalesced run counts as everyone's first attempt.
    stats_.coalesced_fallbacks.fetch_add(1, std::memory_order_relaxed);
    for (Pending& p : runnable) {
      if (crashed()) break;  // remaining requests die unacknowledged
      ExecuteWithRetry(&p, /*attempts_so_far=*/1);
      ++completed;
    }
    return completed;
  }

  /// Appends one WAL record per write op across the batch's successful
  /// requests, then flushes them with a single group commit.  OK when no
  /// durability manager is attached; a failed flush comes back as the
  /// DataLoss every write of the batch is answered with (the ops are
  /// applied but not durable, and honesty demands saying so).
  Status LogAndCommitWrites(std::span<const Pending> runnable) {
    if (durability_ == nullptr) return Status::OK();
    for (const Pending& p : runnable) {
      for (const Op& op : p.request.ops) {
        if (op.type == OpType::kInsert) {
          durability_->LogInsert(op.key, op.value);
        } else if (op.type == OpType::kErase) {
          durability_->LogErase(op.key);
        }
      }
    }
    Status commit = durability_->Commit();
    if (commit.ok()) return commit;
    return Status::DataLoss("write applied but not durable: " +
                            commit.message());
  }

  /// Completes an executed request with `status`: copies its op results
  /// out of `results` (its ops, in order), feeds a write's outcome to the
  /// breaker, and counts the completion.
  void Respond(const Pending& p, Status status, uint32_t attempts,
               const MixedOp* results) {
    Response resp;
    resp.status = std::move(status);
    resp.attempts = attempts;
    resp.results.resize(p.request.ops.size());
    for (size_t i = 0; i < resp.results.size(); ++i) {
      resp.results[i].hit = results[i].hit;
      resp.results[i].value = results[i].value;
    }
    resp.completed_at = clock_->Now();
    if (HasWrite(p.request)) {
      if (resp.status.ok()) {
        breaker_.OnWriteSuccess();
      } else {
        breaker_.OnWriteFailure(clock_->Now());
      }
    }
    (resp.status.ok() ? stats_.completed_ok : stats_.completed_error)
        .fetch_add(1, std::memory_order_relaxed);
    Complete(p.id, std::move(resp));
  }

  /// Runs one request's ops alone, retrying per policy while the deadline
  /// allows; completes the request with its terminal response.
  void ExecuteWithRetry(Pending* p, uint32_t attempts_so_far) {
    std::vector<MixedOp> ops;
    ops.reserve(p->request.ops.size());
    for (const Op& op : p->request.ops) {
      ops.push_back(MixedOp{op.type, op.key, op.value, 0});
    }
    const bool has_write = HasWrite(p->request);
    uint32_t attempts = attempts_so_far;
    Status st;
    for (;;) {
      for (MixedOp& op : ops) op.hit = 0;
      st = table_->BulkExecute(ops);
      ++attempts;
      if (attempts > attempts_so_far + 1) {
        stats_.retries.fetch_add(1, std::memory_order_relaxed);
      }
      if (st.ok() || !options_.retry.ShouldRetry(st)) break;
      if (attempts >= static_cast<uint32_t>(options_.retry.max_attempts)) {
        break;
      }
      // Back off in virtual time; the wait itself can expire the deadline.
      uint64_t backoff = options_.retry.BackoffTicks(
          static_cast<int>(attempts), p->id);
      clock_->Advance(backoff);
      stats_.backoff_ticks_slept.fetch_add(backoff,
                                           std::memory_order_relaxed);
      if (Expired(p->request)) {
        // If this write was the half-open probe, resolve it as a failure:
        // leaving the probe unresolved would reject writes forever.
        if (has_write &&
            breaker_.state() == CircuitBreaker::State::kHalfOpen) {
          breaker_.OnWriteFailure(clock_->Now());
        }
        stats_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
        Complete(p->id,
                 Response{Status::DeadlineExceeded(
                              "deadline passed after " +
                              std::to_string(attempts) + " attempts"),
                          {}, attempts, clock_->Now()});
        return;
      }
    }

    // Only an OK execution is acknowledged as applied, so only OK writes
    // enter the WAL (non-OK partial applications are "uncertain" by the
    // side-effect contract; checkpoints still capture whatever stuck).
    if (st.ok() && has_write) {
      st = LogAndCommitWrites(std::span<const Pending>(p, 1));
      if (crashed()) return;  // simulated death: the ack never leaves
    }
    Respond(*p, std::move(st), attempts, ops.data());
  }

  /// One bounded scrub slice between batches.
  void ScrubSlice() {
    if (options_.scrub_buckets_per_step == 0) return;
    stats_.scrub_steps.fetch_add(1, std::memory_order_relaxed);
    auto report = scrubber_.Step(options_.scrub_buckets_per_step);
    if (report.corrupted_slots > 0) EscalateCorruption(report);
    if (!report.filled_factor_ok && options_.resize_on_scrub_violation) {
      stats_.scrub_resizes.fetch_add(1, std::memory_order_relaxed);
      Status st = table_->ResizeToBounds();
      if (!st.ok()) {
        DYCUCKOO_LOG(Warning)
            << "scrub-triggered ResizeToBounds failed: " << st.ToString();
      } else if (durability_ != nullptr && !crashed()) {
        // Mark the layout change in the log so an operator replaying it can
        // line resizes up with latency shifts; carries no table state.
        durability_->LogResizeBarrier(table_->capacity_slots());
        Status commit = durability_->Commit();
        if (!commit.ok()) {
          // No ack depends on the barrier: it stays pending in the WAL
          // and rides the next group commit.  But a flush failure here
          // is an early smoke signal for the write path — surface it
          // ([[nodiscard]] caught this being swallowed).
          DYCUCKOO_LOG(Warning)
              << "resize-barrier group commit failed (record rides the "
                 "next commit): " << commit.ToString();
        }
      }
    }
  }

  /// Repair-or-escalate for a scrub slice that detected corrupted slots.
  /// The scrub already unpublished every corrupted slot (no reader can see
  /// the damaged bits), so what is left is restoring the truth:
  ///
  ///   attributable key + durable kFound ..... re-publish the WAL value
  ///   attributable key + durable kErased .... the removal WAS the truth
  ///   attributable key + kAbsent/kUnreadable  unrepairable (the key read
  ///                                           from a corrupted slot cannot
  ///                                           be trusted to name the real
  ///                                           victim, or durability cannot
  ///                                           answer)
  ///   unattributable corruption ............. unrepairable (nothing to
  ///                                           look up)
  ///
  /// Any unrepairable finding force-opens the breaker (writes stop NOW,
  /// not after a failure streak) and latches integrity_compromised_ so a
  /// supervisor quarantines the shard and rebuilds it from durable state.
  /// Repairs re-publish pairs that are already durable, so no new WAL
  /// records are written.
  void EscalateCorruption(
      const typename Table::ScrubReport& report) {
    stats_.scrub_corruption_detected.fetch_add(report.corrupted_slots,
                                               std::memory_order_relaxed);
    uint64_t unrepairable = report.corrupted_unattributable;
    for (Key key : report.corrupted_keys) {
      if (durability_ == nullptr || crashed()) {
        ++unrepairable;
        continue;
      }
      Value v{};
      switch (durability_->PointLookup(key, &v)) {
        case durability::PointLookupResult::kFound:
          // Infallible: a pair the bucket rejects spills to the stash.
          table_->RepairCorruptedPair(key, v);
          stats_.scrub_corruption_repaired.fetch_add(
              1, std::memory_order_relaxed);
          DYCUCKOO_LOG(Info)
              << "scrub: repaired corrupted key from durable state";
          break;
        case durability::PointLookupResult::kErased:
          // The durable truth is "erased"; the scrub's unpublish already
          // realized it.  Resolved, nothing to re-publish.
          stats_.scrub_corruption_repaired.fetch_add(
              1, std::memory_order_relaxed);
          break;
        case durability::PointLookupResult::kAbsent:
        case durability::PointLookupResult::kUnreadable:
          ++unrepairable;
          break;
      }
    }
    if (unrepairable > 0) {
      stats_.scrub_corruption_unrepairable.fetch_add(
          unrepairable, std::memory_order_relaxed);
      table_->NoteUnrepairableCorruption(unrepairable);
      if (!integrity_compromised_) {
        DYCUCKOO_LOG(Error)
            << "scrub: " << unrepairable
            << " corrupted slot(s) unrepairable from durable state; "
               "opening breaker and flagging integrity compromise";
      }
      integrity_compromised_ = true;
      breaker_.ForceOpen(clock_->Now());
    }
  }

  /// Between-batch checkpoint slot: snapshots the table once the WAL has
  /// grown past the configured thresholds, then truncates the log head.
  void MaybeCheckpoint() {
    if (durability_ == nullptr || crashed()) return;
    Status st = durability_->MaybeCheckpoint(table_.get());
    if (!st.ok() && !crashed()) {
      DYCUCKOO_LOG(Warning) << "checkpoint failed (will retry): "
                            << st.ToString();
    }
  }

  TableServerOptions options_;
  std::unique_ptr<Table> table_;
  durability::DurabilityManager<Key, Value>* durability_ = nullptr;
  gpusim::VirtualClock own_clock_;
  gpusim::VirtualClock* clock_ = &own_clock_;
  AdmissionQueue<Pending> queue_;
  CircuitBreaker breaker_;
  OnlineScrubber<Key, Value> scrubber_;
  ServerStats stats_;
  bool integrity_compromised_ = false;

  std::atomic<uint64_t> next_id_{1};
  mutable common::Mutex responses_mu_;
  std::unordered_map<uint64_t, Response> responses_ GUARDED_BY(responses_mu_);
};

/// The paper's primary 4-byte configuration, served.
using DyCuckooServer = TableServer<uint32_t, uint32_t>;

}  // namespace service
}  // namespace dycuckoo

#endif  // DYCUCKOO_SERVICE_TABLE_SERVER_H_
