// The two workloads that go through the serving stack: a 4-shard
// ShardedTableServer with a DurabilityManager on every shard, driven by a
// closed loop of 16 outstanding 8-op requests (Step runs on the driver
// thread, and each client waits for its ack before sending again).
//
// serve:   ~256k preloaded keys, 50% finds and 50% upserts of existing
//          keys, Zipf 0.99.  No new keys and no erases, so no resizes.
// reshard: the same loop over ~16k keys with 75% upserts, while a split
//          4 -> 8 and a merge 8 -> 4 alternate for the whole run, each
//          started 32 steps after the previous one finalized.
//
// A request's latency runs from Submit until TakeResponse returns it.
// Every upsert writes a fresh sequence number, so the WriteLedger can
// tell whether a find's value was written by an acked upsert or one
// still in flight, and what the deployment recovered from its durable
// images at the end must hold.

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "check.h"
#include "common/rng.h"
#include "durability/sharded.h"
#include "service/sharded_server.h"
#include "workload/zipf.h"

namespace perfbench {

namespace {

using dycuckoo::Status;
using Server = dycuckoo::service::ShardedTableServer<uint32_t, uint32_t>;
using OpType = Server::OpType;

constexpr uint32_t kOutstanding = 16;
constexpr uint32_t kOpsPerRequest = 8;
constexpr uint64_t kPoolRequests = 1u << 16;
constexpr uint32_t kPreloadRequestOps = 512;
constexpr uint32_t kShards = 4;
constexpr double kZipf = 0.99;
// Serving steps between one finalized migration and the next.  A
// migration advances one chunk per step, and the half of the chunks that
// stay on their shard cost nothing, so back-to-back migrations make
// exactly half of all steps slow: the request median would then sit in
// the gap between the fast and the slow mode and jump between them from
// run to run.  The pause (about 1/3 of the steps, a few percent of the
// wall time) puts the median in the fast mode and leaves p99 in the slow.
constexpr uint32_t kStepsBetweenReshards = 32;
// A drain that needs more steps than this is a stuck deployment.
constexpr uint64_t kMaxDrainSteps = 1u << 20;

struct ServeConfig {
  const char* name;
  uint32_t keys;
  double write_fraction;
  bool reshard;
};

constexpr ServeConfig kServe{"serve", 1u << 18, 0.50, false};
constexpr ServeConfig kReshard{"reshard", 1u << 14, 0.75, true};

struct PoolOp {
  uint32_t idx;
  bool write;
};

struct ServeInput {
  std::vector<uint32_t> keys;
  std::vector<PoolOp> pool;  // kPoolRequests * kOpsPerRequest ops
};

void BuildServeInput(const ServeConfig& cfg, uint64_t seed, ServeInput* in) {
  in->keys = MakeKeys(seed ^ 0x5E7E5E7EULL, cfg.keys);
  dycuckoo::workload::ZipfSampler zipf(cfg.keys, kZipf);
  dycuckoo::Xoroshiro128 rng(seed * 0x2545F4914F6CDD1DULL + 7);
  in->pool.resize(kPoolRequests * kOpsPerRequest);
  for (PoolOp& op : in->pool) {
    op.idx = static_cast<uint32_t>(zipf.Sample(&rng));
    op.write = rng.NextDouble() < cfg.write_fraction;
  }
}

// --- Counter snapshots (per shard object, summed) ----------------------

/// ServerStats and DurabilityStats counters of one shard.
enum ShardCtr {
  kLaunches, kRetries, kFallbacks, kRejected, kCommits, kCheckpoints,
  kWalBytes, kNumShardCtr
};

struct ShardSnapshots {
  CounterDeltas<kNumTableCtr>::Snapshot tables;
  CounterDeltas<kNumShardCtr>::Snapshot shards;
};

/// One entry per physical shard, keyed by its server object.
ShardSnapshots ReadShards(Server* srv) {
  ShardSnapshots snap;
  for (uint32_t s = 0; s < srv->physical_shards(); ++s) {
    auto* shard = srv->shard_server(s);
    if (shard == nullptr) continue;
    snap.tables.push_back({shard, ReadTableCounters(shard->table()->stats())});
    CounterDeltas<kNumShardCtr>::Counters c{};
    const auto v = shard->stats().Capture();
    c[kLaunches] = v.batch_launches;
    c[kRetries] = v.retries;
    c[kFallbacks] = v.coalesced_fallbacks;
    c[kRejected] = v.rejected_queue_full + v.rejected_deadline +
                   v.rejected_unavailable;
    if (auto* m = srv->shard_manager(s)) {
      c[kCommits] = m->stats().group_commits;
      c[kCheckpoints] = m->stats().checkpoints;
      c[kWalBytes] = m->wal().bytes_flushed();
    }
    snap.shards.push_back({shard, c});
  }
  return snap;
}

/// Front-door and resharder counters (single long-lived objects).
enum FrontCtr {
  kShardRejections, kBlockedWrites, kChunksCopied, kKeysCopied, kDeferrals,
  kNumFrontCtr
};
using FrontCounters = std::array<uint64_t, kNumFrontCtr>;

FrontCounters ReadFront(const Server& srv) {
  const auto& r = srv.resharder().stats();
  return {srv.stats().shard_rejections.load(),
          srv.stats().reshard_blocked_writes.load(), r.chunks_copied,
          r.keys_copied, r.deferrals};
}

/// Per-layer accounting for the traced slices.
struct ServeTrace {
  CounterDeltas<kNumTableCtr> tables;
  CounterDeltas<kNumShardCtr> shards;
  CounterDeltas<kNumSim> sim;
  CounterDeltas<kNumFrontCtr> front;
  uint64_t steps = 0;
  uint64_t ops = 0, writes = 0;
  double seconds = 0;  // traced steps' wall time
  std::vector<double> submit_us, take_us, step_us, checkpoint_step_us,
      chunk_step_ms, steps_per_request, filled_factor;
};

struct Slot {
  uint64_t id = 0;
  uint32_t pool_req = 0;
  uint32_t submit_step = 0;
  uint32_t span = 0;
  Clock::time_point start;
  // Per op: the value an upsert wrote, or for a find the latest ack step
  // of its key when it was submitted.
  std::array<uint32_t, kOpsPerRequest> aux{};
};

class ServeRun {
 public:
  ServeRun(const ServeConfig& cfg, const Options& opt, const Env& env,
           RunResult* out)
      : cfg_(cfg), opt_(opt), env_(env), rec_(env.rec), out_(out) {}

  void Run();

 private:
  void Setup();
  void Preload();
  void Submit(Slot* slot);
  void AckWrites(const Slot& slot, const Server::Response& resp);
  void CheckResponse(const Slot& slot, const Server::Response& resp);
  bool StepOnce();
  void ManageReshard();
  void Drain();
  void CheckRecovery();
  void Emit();

  Server::Options ServerOptions() const {
    Server::Options o;
    o.num_shards = kShards;
    o.attach_durability = true;
    return o;
  }

  const ServeConfig& cfg_;
  const Options& opt_;
  const Env& env_;
  SpanRecorder* rec_;
  RunResult* out_;

  ServeInput in_;
  std::unique_ptr<KeyIndex> index_;
  std::unique_ptr<WriteLedger> ledger_;
  std::unique_ptr<Server> srv_;
  std::unique_ptr<MeasuredPhase> phase_;
  std::vector<double> setup_s_;
  std::vector<double> bytes_per_kv_;
  ServeTrace tr_;
  uint32_t steps_ = 0;
  uint64_t next_pool_ = 0;
  bool submitting_ = true;

  // Resharding state.
  bool migrating_ = false;
  bool cycle_began_ = false;  // a migration began since the last Continue
  uint32_t reshard_target_ = 0;
  uint32_t next_reshard_step_ = 0;
  Clock::time_point reshard_start_;
  std::vector<double> reshard_s_;
  double recover_ms_ = 0;
};

void ServeRun::Setup() {
  while (MoreSetups(setup_s_)) {
    srv_.reset();
    const Clock::time_point t0 = Clock::now();
    in_ = ServeInput{};
    BuildServeInput(cfg_, opt_.seed, &in_);
    index_ = std::make_unique<KeyIndex>(in_.keys);
    ledger_ = std::make_unique<WriteLedger>(cfg_.keys);
    steps_ = 0;
    CheckSetup(Server::Create(BaseTableOptions(env_), ServerOptions(), &srv_),
                "ShardedTableServer::Create");
    Preload();
    setup_s_.push_back(SecondsSince(t0));
  }
}

/// Upserts every key once through the front door (so the preload is in
/// the WAL and checkpoints like any other write).
void ServeRun::Preload() {
  std::vector<std::pair<uint64_t, std::vector<uint32_t>>> pending;
  for (uint32_t i = 0; i < cfg_.keys; i += kPreloadRequestOps) {
    Server::Request req;
    std::vector<uint32_t> vals;
    for (uint32_t k = i; k < std::min(cfg_.keys, i + kPreloadRequestOps); ++k) {
      vals.push_back(ledger_->NewWrite(k));
      req.ops.push_back({OpType::kInsert, in_.keys[k], vals.back()});
    }
    pending.push_back({srv_->Submit(std::move(req)), std::move(vals)});
    if (pending.size() < 32 && i + kPreloadRequestOps < cfg_.keys) continue;
    for (uint64_t guard = 0; !pending.empty(); ++guard) {
      if (guard > kMaxDrainSteps) {
        std::fprintf(stderr, "perfbench: preload does not drain\n");
        std::exit(2);
      }
      srv_->Step();
      ++steps_;
      for (auto it = pending.begin(); it != pending.end();) {
        Server::Response resp;
        if (!srv_->TakeResponse(it->first, &resp)) {
          ++it;
          continue;
        }
        CheckSetup(resp.status, "preload request");
        for (uint32_t v : it->second) ledger_->Ack(v, steps_);
        it = pending.erase(it);
      }
    }
  }
  if (srv_->total_size() != cfg_.keys) {
    std::fprintf(stderr, "perfbench: preload holds %llu keys\n",
                 static_cast<unsigned long long>(srv_->total_size()));
    std::exit(2);
  }
}

void ServeRun::Submit(Slot* slot) {
  const uint32_t p = static_cast<uint32_t>(next_pool_++ % kPoolRequests);
  slot->pool_req = p;
  Server::Request req;
  req.ops.reserve(kOpsPerRequest);
  for (uint32_t i = 0; i < kOpsPerRequest; ++i) {
    const PoolOp& op = in_.pool[p * kOpsPerRequest + i];
    const uint32_t key = in_.keys[op.idx];
    if (op.write) {
      slot->aux[i] = ledger_->NewWrite(op.idx);
      req.ops.push_back({OpType::kInsert, key, slot->aux[i]});
    } else {
      slot->aux[i] = ledger_->latest_ack_step(op.idx);
      req.ops.push_back({OpType::kFind, key, 0});
    }
  }
  slot->submit_step = steps_;
  slot->start = Clock::now();
  const uint64_t rid = next_pool_;
  slot->span = rec_->Open("client", "request", 0, rid);
  const uint32_t s = rec_->Open("service", "Submit", slot->span, rid);
  const Clock::time_point t0 = Clock::now();
  slot->id = srv_->Submit(std::move(req));
  if (rec_->enabled()) tr_.submit_us.push_back(MicrosBetween(t0, Clock::now()));
  rec_->Close(s);
}

/// Records the acks of a completed request's upserts.  Runs for every
/// request a step completed before any of them is checked or replaced,
/// so a find submitted after the step sees all of that step's acks.
void ServeRun::AckWrites(const Slot& slot, const Server::Response& resp) {
  if (!resp.status.ok()) return;
  for (uint32_t i = 0; i < kOpsPerRequest; ++i) {
    if (in_.pool[slot.pool_req * kOpsPerRequest + i].write) {
      ledger_->Ack(slot.aux[i], steps_);
    }
  }
}

/// Checks one completed request's finds against the ledger.
void ServeRun::CheckResponse(const Slot& slot, const Server::Response& resp) {
  out_->attempted += kOpsPerRequest;
  if (!resp.status.ok()) {
    out_->OpsFailed(std::string(cfg_.name) + " request: " +
                        resp.status.ToString(),
                    kOpsPerRequest);
    return;
  }
  if (resp.results.size() != kOpsPerRequest) {
    out_->CheckFailed("response carries " +
                          std::to_string(resp.results.size()) + " results",
                      kOpsPerRequest);
    return;
  }
  for (uint32_t i = 0; i < kOpsPerRequest; ++i) {
    const PoolOp& op = in_.pool[slot.pool_req * kOpsPerRequest + i];
    if (op.write) continue;
    const auto& r = resp.results[i];
    if (r.hit == 0 || !ledger_->FindValueValid(op.idx, r.value,
                                               slot.submit_step,
                                               slot.aux[i])) {
      out_->CheckFailed(std::string(cfg_.name) + ": find of key index " +
                        std::to_string(op.idx) + " returned " +
                        (r.hit ? std::to_string(r.value) : "a miss"));
    }
  }
}

/// One Step on the driver thread, timed and (traced) attributed.
bool ServeRun::StepOnce() {
  const bool traced = rec_->enabled();
  ShardSnapshots before;
  SimCounters sim0{};
  FrontCounters front0{};
  if (traced) {
    before = ReadShards(srv_.get());
    sim0 = ReadSimCounters();
    front0 = ReadFront(*srv_);
  }
  const uint32_t id = rec_->Open("service", "Step");
  const Clock::time_point t0 = Clock::now();
  srv_->Step();
  const double us = MicrosBetween(t0, Clock::now());
  rec_->Close(id);
  ++steps_;
  if (traced) {
    const ShardSnapshots after = ReadShards(srv_.get());
    const FrontCounters front1 = ReadFront(*srv_);
    CounterDeltas<kNumShardCtr> step;
    step.Add(before.shards, after.shards);
    tr_.tables.Add(before.tables, after.tables);
    tr_.shards.Add(before.shards, after.shards);
    tr_.sim.Add(sim0, ReadSimCounters());
    tr_.front.Add(front0, front1);
    ++tr_.steps;
    tr_.seconds += us * 1e-6;
    tr_.step_us.push_back(us);
    if (step[kCheckpoints] > 0) {
      rec_->Tag(id, "checkpoint");
      tr_.checkpoint_step_us.push_back(us);
    }
    if (front1[kChunksCopied] != front0[kChunksCopied]) {
      rec_->Tag(id, "chunk");
      tr_.chunk_step_ms.push_back(us * 1e-3);
    }
  }
  return traced;
}

/// Starts a split (or merge) whenever none is running, and checks every
/// finalized one.
void ServeRun::ManageReshard() {
  if (!cfg_.reshard) return;
  if (migrating_ && srv_->num_shards() == reshard_target_ &&
      !srv_->router().migrating() && !srv_->resharder().active()) {
    migrating_ = false;
    next_reshard_step_ = steps_ + kStepsBetweenReshards;
    // Only migrations that ran under load count towards reshard_s.
    if (submitting_) reshard_s_.push_back(SecondsSince(reshard_start_));
    phase_->CheckBegin();
    if (srv_->total_size() != cfg_.keys) {
      out_->CheckFailed("after resharding to " +
                        std::to_string(reshard_target_) + " shards: " +
                        std::to_string(srv_->total_size()) + " keys, expected " +
                        std::to_string(cfg_.keys));
    }
    phase_->CheckEnd();
  }
  if (!migrating_ && submitting_ && steps_ >= next_reshard_step_) {
    reshard_target_ = srv_->num_shards() == kShards ? 2 * kShards : kShards;
    const uint32_t id = rec_->Open("service", "BeginReshard");
    CheckSetup(srv_->BeginReshard(reshard_target_), "BeginReshard");
    rec_->Close(id);
    migrating_ = true;
    cycle_began_ = true;
    reshard_start_ = Clock::now();
  }
}

/// Stops submitting, acks everything in flight and lets a running
/// migration finish, so the durable images hold no in-flight write.
void ServeRun::Drain() {
  submitting_ = false;
  for (uint64_t guard = 0;; ++guard) {
    if (guard > kMaxDrainSteps) {
      out_->CheckFailed(std::string(cfg_.name) + ": drain did not finish");
      return;
    }
    const bool busy = migrating_ && (srv_->resharder().active() ||
                                     srv_->router().migrating());
    if (!busy) break;
    srv_->Step();
    ++steps_;
  }
  ManageReshard();  // checks the migration that finished while draining
}

void ServeRun::CheckRecovery() {
  dycuckoo::durability::ShardedDeploymentRecovery<uint32_t, uint32_t> rec;
  rec_->set_enabled(opt_.trace);  // the phase is over; record this one span
  const uint32_t id = rec_->Open("durability", "RecoverShardedDeployment");
  const Clock::time_point t0 = Clock::now();
  const Status st =
      dycuckoo::durability::RecoverShardedDeployment<uint32_t, uint32_t>(
          srv_->ManifestImage(), srv_->JournalImage(), srv_->DurableImages(),
          srv_->ShardTableOptionsList(), ServerOptions().router_seed, &rec,
          static_cast<int>(env_.grid_workers));
  recover_ms_ = SecondsSince(t0) * 1e3;
  rec_->Close(id);
  rec_->set_enabled(false);
  if (!st.ok()) {
    out_->CheckFailed("RecoverShardedDeployment: " + st.ToString());
    return;
  }
  std::vector<uint8_t> seen(cfg_.keys, 0);
  uint64_t bad = 0;
  for (const auto& o : rec.outcomes) {
    if (!o.status.ok() || o.table == nullptr) {
      out_->CheckFailed("recovered shard " + std::to_string(o.shard_id) +
                        ": " + o.status.ToString());
      continue;
    }
    o.table->ForEach([&](uint32_t k, uint32_t v) {
      const uint32_t idx = index_->Find(k);
      if (idx == KeyIndex::kMissing || seen[idx] ||
          !ledger_->DurableValueValid(idx, v)) {
        ++bad;
      } else {
        seen[idx] = 1;
      }
    });
  }
  for (uint8_t s : seen) bad += s == 0;
  if (bad > 0) {
    out_->CheckFailed(std::to_string(bad) +
                          " keys lost, duplicated or stale after recovery",
                      bad);
  }
}

void ServeRun::Run() {
  Setup();
  phase_ = std::make_unique<MeasuredPhase>(opt_, rec_);
  std::array<Slot, kOutstanding> slots;
  std::array<bool, kOutstanding> live{};
  std::array<Server::Response, kOutstanding> resps;
  phase_->Start();
  ManageReshard();
  for (uint32_t i = 0; i < kOutstanding; ++i) {
    Submit(&slots[i]);
    live[i] = true;
  }
  uint32_t open = kOutstanding;
  while (open > 0) {
    // reshard's slices (and its phase) end only where a migration has
    // just begun, so every slice holds whole cycles of a migration and
    // the pause after it, the same mix of chunk-copy and plain steps.  A
    // cycle takes about 0.4 s, close to a slice: slices cut anywhere held
    // one migration or two.
    const bool boundary = !cfg_.reshard || std::exchange(cycle_began_, false);
    submitting_ = submitting_ && phase_->Continue(boundary);
    const bool traced = StepOnce();
    std::array<bool, kOutstanding> done{};
    for (uint32_t i = 0; i < kOutstanding; ++i) {
      if (!live[i]) continue;
      Slot& slot = slots[i];
      const uint32_t tid = rec_->Open("service", "TakeResponse", slot.span);
      const Clock::time_point t0 = Clock::now();
      done[i] = srv_->TakeResponse(slot.id, &resps[i]);
      const Clock::time_point t1 = Clock::now();
      rec_->Close(tid);
      if (traced) tr_.take_us.push_back(MicrosBetween(t0, t1));
      if (!done[i]) continue;
      rec_->Close(slot.span);
      phase_->Latency(MicrosBetween(slot.start, t1));
      const bool ok = resps[i].status.ok();
      if (ok) phase_->Ops(kOpsPerRequest);
      if (traced) {
        tr_.steps_per_request.push_back(steps_ - slot.submit_step);
        if (ok) {
          tr_.ops += kOpsPerRequest;
          for (uint32_t k = 0; k < kOpsPerRequest; ++k) {
            tr_.writes += in_.pool[slot.pool_req * kOpsPerRequest + k].write;
          }
        }
      }
    }
    phase_->CheckBegin();
    for (uint32_t i = 0; i < kOutstanding; ++i) {
      if (done[i]) AckWrites(slots[i], resps[i]);
    }
    for (uint32_t i = 0; i < kOutstanding; ++i) {
      if (done[i]) CheckResponse(slots[i], resps[i]);
    }
    phase_->CheckEnd();
    for (uint32_t i = 0; i < kOutstanding; ++i) {
      if (!done[i]) continue;
      if (submitting_) {
        Submit(&slots[i]);
      } else {
        live[i] = false;
        --open;
      }
    }
    phase_->CheckBegin();
    uint64_t bytes = 0;
    for (uint32_t s = 0; s < srv_->physical_shards(); ++s) {
      if (auto* shard = srv_->shard_server(s)) {
        bytes += shard->table()->memory_bytes();
      }
    }
    bytes_per_kv_.push_back(static_cast<double>(bytes) /
                            static_cast<double>(srv_->total_size()));
    if (traced) {
      uint64_t size = 0, slots_total = 0;
      for (uint32_t s = 0; s < srv_->physical_shards(); ++s) {
        if (auto* shard = srv_->shard_server(s)) {
          size += shard->table()->size();
          slots_total += shard->table()->capacity_slots();
        }
      }
      tr_.filled_factor.push_back(static_cast<double>(size) /
                                  static_cast<double>(slots_total));
    }
    phase_->CheckEnd();
    ManageReshard();
  }
  phase_->Finish();
  Drain();
  CheckRecovery();

  out_->workload_info.Int("keys", cfg_.keys)
      .Int("outstanding_requests", kOutstanding)
      .Int("ops_per_request", kOpsPerRequest)
      .Num("write_fraction", cfg_.write_fraction)
      .Num("zipf", kZipf)
      .Int("steps", steps_)
      .Int("writes", ledger_->writes())
      .Int("reshards_completed", reshard_s_.size())
      .Num("recover_ms", recover_ms_);
  Emit();
}

void ServeRun::Emit() {
  if (!opt_.trace) {
    if (cfg_.reshard) {
      const Summary r = Summarize(reshard_s_);
      out_->workload_info.Obj("reshard_s", SummaryJson(r));
    }
    EmitEndToEnd(*phase_, setup_s_, bytes_per_kv_, out_);
    return;
  }
  const ServeTrace& t = tr_;
  const double ops = static_cast<double>(t.ops);
  const double writes = static_cast<double>(t.writes);
  EmitGpusimLayers(t.sim, ops, "acked_ops", writes, "acked_upserts", out_);
  // Table kernels run inside Step, so only their counters are visible
  // from here, summed over the shards' tables.
  EmitTableCounterLayers(t.tables, writes, "acked_upserts", t.filled_factor,
                         out_);

  const Summary submit = Summarize(t.submit_us);
  const Summary take = Summarize(t.take_us);
  const Summary step = Summarize(t.step_us);
  const Summary spr = Summarize(t.steps_per_request);
  out_->Layer("service.submit_us_p50", "us", submit.median, SummaryJson(submit));
  out_->Layer("service.take_us_p50", "us", take.median, SummaryJson(take));
  out_->Layer("service.steps_per_request", "1", spr.mean, SummaryJson(spr));
  out_->Layer("service.step_us_p50", "us", step.median, SummaryJson(step));
  JsonObject p99 = SummaryJson(step);
  p99.Bool("p99_supported", step.p99_supported);
  out_->Layer("service.step_us_p99", "us", step.p99, p99);
  const Ratio per_launch{ops, static_cast<double>(t.shards[kLaunches])};
  out_->Layer("service.ops_per_launch", "1", per_launch.value(),
              RatioJson(per_launch, "acked_ops", "batch_launches"));
  out_->Layer("service.rejections", "count",
              static_cast<double>(t.shards[kRejected] +
                                  t.front[kShardRejections]));
  out_->Layer("service.retries", "count",
              static_cast<double>(t.shards[kRetries]));
  out_->Layer("service.coalesced_fallbacks", "count",
              static_cast<double>(t.shards[kFallbacks]));

  const Ratio commits{static_cast<double>(t.shards[kCommits]),
                      static_cast<double>(t.steps)};
  const Ratio wal{static_cast<double>(t.shards[kWalBytes]), writes};
  out_->Layer("durability.commits_per_step", "1", commits.value(),
              RatioJson(commits, "group_commits", "steps"));
  out_->Layer("durability.wal_bytes_per_write", "B", wal.value(),
              RatioJson(wal, "wal_bytes", "acked_upserts"));
  out_->Layer("durability.checkpoints", "count",
              static_cast<double>(t.shards[kCheckpoints]));
  const Summary ckpt = Summarize(t.checkpoint_step_us);
  out_->Layer("durability.checkpoint_step_us_p50", "us", ckpt.median,
              SummaryJson(ckpt));
  out_->Layer("durability.recover_ms", "ms", recover_ms_);

  const Summary chunk = Summarize(t.chunk_step_ms);
  out_->Layer("service.reshard_chunk_step_ms_p50", "ms", chunk.median,
              SummaryJson(chunk));
  const Ratio copied{static_cast<double>(t.front[kKeysCopied]), t.seconds};
  out_->Layer("service.reshard_keys_copied_per_s", "1/s", copied.value(),
              RatioJson(copied, "keys_copied", "traced_step_seconds"));
  out_->Layer("service.reshard_deferrals", "count",
              static_cast<double>(t.front[kDeferrals]));
  out_->Layer("service.reshard_blocked_writes", "count",
              static_cast<double>(t.front[kBlockedWrites]));
  const Summary r = Summarize(reshard_s_);
  out_->Layer("service.reshard_s", "s", r.median, SummaryJson(r));
  EmitTraceSummary(*phase_, *rec_, out_);
}

}  // namespace

void RunServe(const Options& opt, const Env& env, RunResult* out) {
  ServeRun(kServe, opt, env, out).Run();
}

void RunReshard(const Options& opt, const Env& env, RunResult* out) {
  ServeRun(kReshard, opt, env, out).Run();
}

}  // namespace perfbench
