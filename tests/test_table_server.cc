// TableServer: admission control, deadlines, retry/backoff, the circuit
// breaker, and the end-to-end chaos acceptance test.

#include "service/table_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "dycuckoo/options.h"
#include "gpusim/device_arena.h"
#include "gpusim/fault_injector.h"
#include "gpusim/grid.h"
#include "test_util.h"

namespace dycuckoo {
namespace service {
namespace {

using Server = TableServer<uint32_t, uint32_t>;
using OpType = Server::OpType;

Server::Request InsertReq(std::span<const uint32_t> keys,
                          std::span<const uint32_t> values,
                          uint64_t deadline = 0) {
  Server::Request req;
  req.deadline = deadline;
  for (size_t i = 0; i < keys.size(); ++i) {
    req.ops.push_back(Server::Op{OpType::kInsert, keys[i], values[i]});
  }
  return req;
}

Server::Request FindReq(std::span<const uint32_t> keys,
                        uint64_t deadline = 0) {
  Server::Request req;
  req.deadline = deadline;
  for (uint32_t k : keys) {
    req.ops.push_back(Server::Op{OpType::kFind, k, 0});
  }
  return req;
}

std::unique_ptr<Server> MakeServer(const TableServerOptions& sopt,
                                   DyCuckooOptions topt = {}) {
  std::unique_ptr<Server> server;
  Status st = Server::Create(topt, sopt, &server);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return server;
}

TEST(TableServerTest, InsertThenFindRoundTrip) {
  auto server = MakeServer({});
  auto keys = testing::UniqueKeys(500);
  auto values = testing::SequentialValues(keys.size(), 100);

  // Drain the INSERT before submitting the FIND: a FIND coalesced into the
  // same micro-batch as an INSERT of its keys may see either side (see the
  // consistency contract in table_server.h).
  uint64_t w = server->Submit(InsertReq(keys, values));
  server->RunUntilIdle();
  uint64_t r = server->Submit(FindReq(keys));
  server->RunUntilIdle();

  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(w, &resp));
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.attempts, 1u);
  ASSERT_TRUE(server->TakeResponse(r, &resp));
  ASSERT_TRUE(resp.status.ok());
  ASSERT_EQ(resp.results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(resp.results[i].hit, 1u);
    EXPECT_EQ(resp.results[i].value, values[i]);
  }
  EXPECT_EQ(server->stats().Capture().completed_ok, 2u);
  EXPECT_FALSE(server->TakeResponse(w, &resp));  // taken once
}

TEST(TableServerTest, AckedKeysAlwaysFoundUnderCoalescedInserts) {
  // The server-level FIND-under-INSERT guarantee (see the header's
  // "Consistency" contract): keys acknowledged in earlier batches must be
  // hit by every later FIND, even when that FIND is coalesced into the
  // same micro-batch — the same mixed grid launch — as inserts whose
  // eviction chains displace pairs around it.  Before the handoff ring,
  // a displaced victim was transiently invisible to exactly this FIND.
  TableServerOptions sopt;
  sopt.max_batch_ops = 4096;  // finds + fresh inserts coalesce into one launch
  DyCuckooOptions topt;
  topt.initial_capacity = 2048;  // auto-resizes mid-run: constant chains
  auto server = MakeServer(sopt, topt);

  auto universe = testing::UniqueKeys(12000, 31);
  std::vector<uint32_t> resident(universe.begin(), universe.begin() + 2000);
  auto values = testing::SequentialValues(resident.size(), 500);
  server->Submit(InsertReq(resident, values));
  server->RunUntilIdle();  // the resident set is now acknowledged

  SplitMix64 rng(0xACED);
  size_t next_fresh = 2000;
  for (int round = 0; round < 8; ++round) {
    // One pending FIND of acked keys + enough fresh-insert requests to
    // keep eviction chains running, all drained in the same micro-batch.
    std::vector<uint32_t> probe;
    for (int i = 0; i < 400; ++i) {
      probe.push_back(resident[rng.NextBounded(resident.size())]);
    }
    uint64_t find_id = server->Submit(FindReq(probe));
    std::vector<uint32_t> fresh(universe.begin() + next_fresh,
                                universe.begin() + next_fresh + 500);
    next_fresh += 500;
    uint64_t ins_id = server->Submit(
        InsertReq(fresh, testing::SequentialValues(fresh.size())));
    server->RunUntilIdle();

    Server::Response resp;
    ASSERT_TRUE(server->TakeResponse(find_id, &resp));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_EQ(resp.results.size(), probe.size());
    for (size_t i = 0; i < probe.size(); ++i) {
      ASSERT_EQ(resp.results[i].hit, 1u)
          << "acked key " << probe[i] << " missed in round " << round
          << " while coalesced inserts were displacing pairs";
      uint32_t idx = static_cast<uint32_t>(
          std::find(resident.begin(), resident.end(), probe[i]) -
          resident.begin());
      ASSERT_EQ(resp.results[i].value, 500 + idx);
    }
    ASSERT_TRUE(server->TakeResponse(ins_id, &resp));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }
  EXPECT_GT(server->table()->stats().Capture().evictions, 0u)
      << "no eviction chains ran; the test proved nothing";
}

TEST(TableServerTest, EraseReportsHits) {
  auto server = MakeServer({});
  auto keys = testing::UniqueKeys(100);
  auto values = testing::SequentialValues(keys.size());
  server->Submit(InsertReq(keys, values));
  server->RunUntilIdle();

  Server::Request erase;
  erase.ops.push_back(Server::Op{OpType::kErase, keys[0], 0});
  erase.ops.push_back(Server::Op{OpType::kErase, 0xEEEEEEEu, 0});  // absent
  uint64_t id = server->Submit(std::move(erase));
  server->RunUntilIdle();

  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(id, &resp));
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.results[0].hit, 1u);
  EXPECT_EQ(resp.results[1].hit, 0u);
}

TEST(TableServerTest, QueueFullRejectsWithResourceExhausted) {
  TableServerOptions sopt;
  sopt.queue_capacity = 2;
  auto server = MakeServer(sopt);
  auto keys = testing::UniqueKeys(4);
  auto values = testing::SequentialValues(4);

  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(server->Submit(
        InsertReq(std::span(&keys[i], 1), std::span(&values[i], 1))));
  }
  // The overflow rejections complete immediately, before any Step.
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(ids[2], &resp));
  EXPECT_TRUE(resp.status.IsResourceExhausted()) << resp.status.ToString();
  EXPECT_EQ(resp.attempts, 0u);
  ASSERT_TRUE(server->TakeResponse(ids[3], &resp));
  EXPECT_TRUE(resp.status.IsResourceExhausted());

  server->RunUntilIdle();
  ASSERT_TRUE(server->TakeResponse(ids[0], &resp));
  EXPECT_TRUE(resp.status.ok());
  ASSERT_TRUE(server->TakeResponse(ids[1], &resp));
  EXPECT_TRUE(resp.status.ok());
  EXPECT_EQ(server->stats().Capture().rejected_queue_full, 2u);
}

TEST(TableServerTest, DeadlineRejectedAtAdmission) {
  auto server = MakeServer({});
  server->clock()->Advance(100);
  auto keys = testing::UniqueKeys(1);
  auto values = testing::SequentialValues(1);
  uint64_t id = server->Submit(InsertReq(keys, values, /*deadline=*/50));
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(id, &resp));  // no Step needed
  EXPECT_TRUE(resp.status.IsDeadlineExceeded()) << resp.status.ToString();
  EXPECT_EQ(resp.attempts, 0u);
  EXPECT_EQ(server->queued(), 0u);
}

TEST(TableServerTest, DeadlineExpiresWhileQueued) {
  auto server = MakeServer({});
  auto keys = testing::UniqueKeys(1);
  auto values = testing::SequentialValues(1);
  uint64_t id =
      server->Submit(InsertReq(keys, values, server->now() + 5));
  server->clock()->Advance(10);  // the server stalls past the deadline
  server->RunUntilIdle();
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(id, &resp));
  EXPECT_TRUE(resp.status.IsDeadlineExceeded());
  EXPECT_EQ(resp.attempts, 0u);  // never executed: no side effects
  EXPECT_EQ(server->table()->size(), 0u);
}

TEST(TableServerTest, DefaultDeadlineApplied) {
  TableServerOptions sopt;
  sopt.default_deadline_ticks = 5;
  auto server = MakeServer(sopt);
  auto keys = testing::UniqueKeys(1);
  auto values = testing::SequentialValues(1);
  uint64_t id = server->Submit(InsertReq(keys, values));  // no deadline set
  server->clock()->Advance(10);
  server->RunUntilIdle();
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(id, &resp));
  EXPECT_TRUE(resp.status.IsDeadlineExceeded());
}

TEST(TableServerTest, MicroBatchRespectsOpBudget) {
  TableServerOptions sopt;
  sopt.max_batch_ops = 8;
  auto server = MakeServer(sopt);
  auto keys = testing::UniqueKeys(20);
  auto values = testing::SequentialValues(20);
  for (int r = 0; r < 5; ++r) {
    server->Submit(
        InsertReq(std::span(keys.data() + 4 * r, 4),
                  std::span(values.data() + 4 * r, 4)));
  }
  EXPECT_EQ(server->queued(), 5u);
  EXPECT_EQ(server->Step(), 2u);  // 4 + 4 ops fill the budget
  EXPECT_EQ(server->queued(), 3u);
  server->RunUntilIdle();
  EXPECT_EQ(server->table()->size(), 20u);
  EXPECT_EQ(server->stats().Capture().batch_launches, 3u);
}

TEST(TableServerTest, ScrubSliceRunsBetweenBatches) {
  TableServerOptions sopt;
  sopt.scrub_buckets_per_step = 32;
  auto server = MakeServer(sopt);
  auto keys = testing::UniqueKeys(200);
  auto values = testing::SequentialValues(200);
  server->Submit(InsertReq(keys, values));
  server->RunUntilIdle();
  ASSERT_TRUE(
      server->table()->PlantMisplacedPairForTest(0xBAADF00Du, 42));

  // Idle steps keep scrubbing; eventually the planted pair is found and
  // repaired (the in-progress pass may already be beyond the planted
  // bucket, so wait for detection, not merely for a pass to complete).
  for (int i = 0;
       i < 20000 && server->scrubber().totals().misplaced_found == 0; ++i) {
    server->Step();
  }
  EXPECT_GE(server->scrubber().full_passes(), 1u);
  EXPECT_EQ(server->scrubber().totals().misplaced_found, 1u);
  EXPECT_TRUE(server->table()->Validate().ok());
  EXPECT_GT(server->stats().Capture().scrub_steps, 0u);
}

// Drives the breaker through trip -> read-only -> probe -> recovery using a
// static (auto_resize=false) table that cannot absorb new keys once full.
TEST(TableServerTest, BreakerTripsToReadOnlyAndRecovers) {
  DyCuckooOptions topt;
  topt.initial_capacity = 1024;
  topt.auto_resize = false;
  TableServerOptions sopt;
  sopt.retry.max_attempts = 2;
  sopt.retry.initial_backoff_ticks = 4;
  sopt.breaker.failure_threshold = 3;
  sopt.breaker.cooldown_ticks = 100000;  // too long to elapse by accident
  auto server = MakeServer(sopt, topt);

  // Saturate the static table from below.
  auto keys = testing::UniqueKeys(1000);
  auto values = testing::SequentialValues(keys.size());
  uint64_t failed = 0;
  (void)server->table()->BulkInsert(keys, values, &failed);
  ASSERT_GT(server->table()->size(), 900u);

  // Under a clamped eviction chain (no displacements allowed), inserts of
  // fresh keys into the saturated table fail terminally — and, crucially,
  // nothing spills into the self-growing recovery stash, since that path
  // only absorbs displaced residents.  The breaker must trip.
  Server::Response resp;
  {
    gpusim::FaultInjectorConfig cfg;
    cfg.max_eviction_chain = 0;
    gpusim::ScopedFaultInjection scoped(cfg);

    auto fresh = testing::UniqueKeys(400, /*seed=*/777);
    auto fvals = testing::SequentialValues(fresh.size());
    int writes_submitted = 0;
    for (int i = 0; i < 100 && server->breaker().trips() == 0; ++i) {
      server->Submit(
          InsertReq(std::span(&fresh[i], 1), std::span(&fvals[i], 1)));
      server->RunUntilIdle();
      ++writes_submitted;
    }
    ASSERT_EQ(server->breaker().trips(), 1u)
        << "breaker did not trip after " << writes_submitted << " writes";
    EXPECT_TRUE(server->read_only());

    // Degraded mode: writes bounce with kUnavailable, reads keep flowing.
    uint64_t wid = server->Submit(
        InsertReq(std::span(&fresh[200], 1), std::span(&fvals[200], 1)));
    uint64_t rid = server->Submit(FindReq(std::span(&keys[0], 10)));
    server->RunUntilIdle();
    ASSERT_TRUE(server->TakeResponse(wid, &resp));
    EXPECT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
    EXPECT_EQ(resp.attempts, 0u);
    ASSERT_TRUE(server->TakeResponse(rid, &resp));
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_GT(server->stats().Capture().rejected_unavailable, 0u);
  }

  // Recovery: past the cooldown an update of a resident key (no growth
  // needed) is admitted as the probe and closes the breaker.
  server->clock()->Advance(sopt.breaker.cooldown_ticks + 1);
  uint32_t probe_value = 0xABCD;
  uint64_t pid = server->Submit(
      InsertReq(std::span(&keys[0], 1), std::span(&probe_value, 1)));
  server->RunUntilIdle();
  ASSERT_TRUE(server->TakeResponse(pid, &resp));
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(server->breaker().recoveries(), 1u);
  EXPECT_FALSE(server->read_only());

  // Writes flow again (updates still work; fresh keys may legitimately
  // fail on the saturated static table, but they are no longer bounced).
  uint64_t wid2 = server->Submit(
      InsertReq(std::span(&keys[1], 1), std::span(&probe_value, 1)));
  server->RunUntilIdle();
  ASSERT_TRUE(server->TakeResponse(wid2, &resp));
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
}

// ---------------------------------------------------------------------------
// Chaos acceptance test: >= 50k mixed ops against a shadow map under
// injected alloc/lock faults and clock-forced deadline expiry.  Checks:
// no lost or phantom keys, every rejection carries one of the three new
// status codes (never a silent drop), the breaker trips and recovers at
// least once, and two same-seed executions are bit-identical.
// ---------------------------------------------------------------------------

struct ChaosOutcome {
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  uint64_t ok = 0;
  uint64_t deadline_unexecuted = 0;
  uint64_t deadline_partial = 0;
  uint64_t queue_full = 0;
  uint64_t unavailable = 0;
  uint64_t partial_failures = 0;
  uint64_t trips = 0;
  uint64_t recoveries = 0;
  uint64_t final_size = 0;
  uint64_t final_ticks = 0;
  bool find_mismatch = false;
  bool erase_mismatch = false;
  bool lost_key = false;
  bool phantom_key = false;
  bool missing_response = false;
};

class ChaosHarness {
 public:
  explicit ChaosHarness(Server* server, ChaosOutcome* out)
      : server_(server), out_(out) {}

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->digest ^= (v >> (8 * i)) & 0xff;
      out_->digest *= 1099511628211ull;
    }
  }

  uint64_t Submit(Server::Request req) {
    uint64_t id = server_->Submit(req);
    pending_.emplace(id, std::move(req));
    return id;
  }

  /// Takes and reconciles every pending response against the shadow map.
  void Drain() {
    server_->RunUntilIdle();
    // Reconcile in id order so the digest is independent of map iteration.
    std::vector<uint64_t> ids;
    ids.reserve(pending_.size());
    for (const auto& [id, req] : pending_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (uint64_t id : ids) {
      Server::Response resp;
      if (!server_->TakeResponse(id, &resp)) {
        out_->missing_response = true;  // a silently dropped request
        continue;
      }
      Reconcile(pending_.at(id), resp, id);
    }
    pending_.clear();
  }

  void Finish() {
    Drain();
    // No lost keys: every key whose state is certain must be found with
    // its exact value.
    std::vector<uint32_t> keys;
    keys.reserve(shadow_.size());
    for (const auto& [k, v] : shadow_) {
      if (uncertain_.count(k) == 0) keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<uint32_t> values(keys.size());
    std::vector<uint8_t> found(keys.size());
    server_->table()->BulkFind(keys, values.data(), found.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (found[i] == 0 || values[i] != shadow_.at(keys[i])) {
        out_->lost_key = true;
      }
      Mix(keys[i]);
      Mix(values[i]);
    }
    // No phantom keys: everything stored is accounted for by the shadow
    // map or by an op whose partial effects are legitimately unknown.
    for (const auto& [k, v] : server_->table()->Dump()) {
      auto it = shadow_.find(k);
      bool known = it != shadow_.end() &&
                   (it->second == v || uncertain_.count(k) > 0);
      if (!known && uncertain_.count(k) == 0) out_->phantom_key = true;
    }
    const auto stats = server_->stats().Capture();
    Mix(stats.submitted);
    Mix(stats.completed_ok);
    Mix(stats.retries);
    Mix(stats.backoff_ticks_slept);
    Mix(stats.batch_launches);
    out_->trips = server_->breaker().trips();
    out_->recoveries = server_->breaker().recoveries();
    out_->final_size = server_->table()->size();
    out_->final_ticks = server_->now();
    Mix(out_->trips);
    Mix(out_->recoveries);
    Mix(out_->final_size);
    Mix(out_->final_ticks);
  }

 private:
  void Reconcile(const Server::Request& req, const Server::Response& resp,
                 uint64_t id) {
    Mix(id);
    Mix(static_cast<uint64_t>(resp.status.code()));
    Mix(resp.attempts);
    Mix(resp.completed_at);
    for (const auto& r : resp.results) {
      Mix(r.hit);
      Mix(r.value);
    }
    const StatusCode code = resp.status.code();
    if (resp.status.ok()) {
      ++out_->ok;
      // attempts > 1 means earlier partial attempts already applied some of
      // these (idempotent) ops; the final state below is still exact, but
      // per-op hit flags reflect the rerun, so only validate them for
      // single-attempt responses.
      const bool exact_hits = resp.attempts <= 1;
      for (size_t i = 0; i < req.ops.size(); ++i) {
        const Server::Op& op = req.ops[i];
        const Server::OpResult& r = resp.results[i];
        switch (op.type) {
          case OpType::kInsert:
            shadow_[op.key] = op.value;
            uncertain_.erase(op.key);
            break;
          case OpType::kErase: {
            bool expected = shadow_.count(op.key) > 0;
            if (exact_hits && uncertain_.count(op.key) == 0 &&
                expected != (r.hit != 0)) {
              out_->erase_mismatch = true;
            }
            shadow_.erase(op.key);
            uncertain_.erase(op.key);
            break;
          }
          case OpType::kFind: {
            if (!exact_hits || uncertain_.count(op.key) != 0) break;
            auto it = shadow_.find(op.key);
            bool expected = it != shadow_.end();
            if (expected != (r.hit != 0) ||
                (expected && it->second != r.value)) {
              out_->find_mismatch = true;
            }
            break;
          }
        }
      }
    } else if (code == StatusCode::kResourceExhausted) {
      ++out_->queue_full;  // never executed
    } else if (code == StatusCode::kUnavailable) {
      ++out_->unavailable;  // never executed
    } else if (code == StatusCode::kDeadlineExceeded) {
      if (resp.attempts == 0) {
        ++out_->deadline_unexecuted;  // rejected pre-execution
      } else {
        ++out_->deadline_partial;
        MarkUncertain(req);
      }
    } else {
      // Transient table failures surfaced terminally (kInsertionFailure /
      // kOutOfMemory): partially applied.
      ++out_->partial_failures;
      MarkUncertain(req);
    }
  }

  void MarkUncertain(const Server::Request& req) {
    for (const Server::Op& op : req.ops) {
      if (op.type != OpType::kFind) uncertain_.insert(op.key);
    }
  }

  Server* server_;
  ChaosOutcome* out_;
  std::unordered_map<uint64_t, Server::Request> pending_;
  std::unordered_map<uint32_t, uint32_t> shadow_;
  std::unordered_set<uint32_t> uncertain_;
};

constexpr int kChaosGroups = 10;      // concurrent requests per round
constexpr int kChaosGroupKeys = 400;  // disjoint key range per request slot
constexpr int kChaosOpsPerRequest = 100;

// Ops within a request use distinct keys, and request slots use disjoint
// key ranges, so ops racing inside one coalesced batch never target the
// same key — the shadow map stays exact for OK responses.
Server::Request MakeMixedRequest(const std::vector<uint32_t>& pool,
                                 int group, int round, uint64_t seed,
                                 uint64_t deadline) {
  SplitMix64 rng(seed ^ (static_cast<uint64_t>(round) * 977 + group));
  Server::Request req;
  req.deadline = deadline;
  for (int i = 0; i < kChaosOpsPerRequest; ++i) {
    uint32_t key =
        pool[group * kChaosGroupKeys +
             (round * 137 + i * 31) % kChaosGroupKeys];
    uint64_t u = rng.Next();
    Server::Op op;
    op.key = key;
    if (u % 10 < 4) {
      op.type = OpType::kInsert;
      op.value = static_cast<uint32_t>(u >> 32);
    } else if (u % 10 < 7) {
      op.type = OpType::kFind;
    } else {
      op.type = OpType::kErase;
    }
    req.ops.push_back(op);
  }
  return req;
}

void RunChaos(uint64_t seed, ChaosOutcome* out) {
  // A dedicated single-worker grid and a private arena make the whole run
  // (warp interleavings, allocation event sequence, injected faults, tick
  // counts) a pure function of the seed.
  gpusim::Grid grid(1);
  gpusim::DeviceArena arena(/*capacity_bytes=*/0);

  DyCuckooOptions topt;
  topt.initial_capacity = 4096;
  topt.stash_capacity = 64;
  topt.seed = 0xC0FFEEULL ^ seed;
  topt.grid = &grid;
  topt.arena = &arena;

  TableServerOptions sopt;
  sopt.queue_capacity = 8;  // < kChaosGroups: rounds overflow on purpose
  sopt.max_batch_ops = 400;
  sopt.retry.max_attempts = 3;
  sopt.retry.initial_backoff_ticks = 16;
  sopt.retry.seed = seed;
  sopt.breaker.failure_threshold = 3;
  sopt.breaker.cooldown_ticks = 5000;
  sopt.scrub_buckets_per_step = 64;

  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(topt, sopt, &server).ok());
  ChaosHarness harness(server.get(), out);

  auto pool = testing::UniqueKeys(kChaosGroups * kChaosGroupKeys, seed + 42);
  auto spare = testing::UniqueKeys(40000, seed + 999);

  auto run_round = [&](int round) {
    const bool stall = round % 7 == 3;
    const uint64_t deadline =
        stall ? server->now() + 2 : server->now() + 1000000;
    for (int g = 0; g < kChaosGroups; ++g) {
      harness.Submit(MakeMixedRequest(pool, g, round, seed, deadline));
    }
    if (stall) {
      // The server stalls past every queued deadline before serving.
      server->clock()->Advance(100);
    }
    harness.Drain();
  };

  // Phase A — healthy traffic under transient faults: occasional allocation
  // failures exercise retry/backoff, lock faults exercise the voter loop.
  {
    gpusim::FaultInjectorConfig cfg;
    cfg.seed = seed;
    cfg.alloc_fail_probability = 0.02;
    cfg.alloc_tag_filter = "dycuckoo";
    cfg.trylock_fail_probability = 0.1;
    gpusim::ScopedFaultInjection scoped(cfg);
    for (int round = 0; round < 25; ++round) run_round(round);
  }

  // Phase B — hard overload: every device allocation fails (capacity is
  // frozen) and eviction chains are clamped to zero, so once the stash and
  // the candidate buckets fill, fresh-key inserts fail terminally — nothing
  // can displace residents into the self-growing recovery stash — and the
  // breaker trips into read-only mode.
  {
    gpusim::FaultInjectorConfig cfg;
    cfg.seed = seed + 1;
    cfg.fail_after_allocs = 0;
    cfg.alloc_tag_filter = "dycuckoo";
    cfg.max_eviction_chain = 0;
    gpusim::ScopedFaultInjection scoped(cfg);
    uint64_t spare_next = 0;
    for (int i = 0;
         i < 350 && server->breaker().trips() == 0 &&
         spare_next + kChaosOpsPerRequest <= spare.size();
         ++i) {
      std::vector<uint32_t> fresh(
          spare.begin() + spare_next,
          spare.begin() + spare_next + kChaosOpsPerRequest);
      spare_next += kChaosOpsPerRequest;
      auto fvals = testing::SequentialValues(fresh.size());
      harness.Submit(InsertReq(fresh, fvals, server->now() + 1000000));
      harness.Drain();
    }
    EXPECT_GE(server->breaker().trips(), 1u)
        << "overload never tripped the breaker";
    // Degraded mode: further writes bounce with kUnavailable.
    std::vector<uint32_t> fresh(spare.begin() + spare_next,
                                spare.begin() + spare_next + 10);
    auto fvals = testing::SequentialValues(fresh.size());
    harness.Submit(InsertReq(fresh, fvals, server->now() + 1000000));
    harness.Submit(FindReq(std::span(pool.data(), 50),
                           server->now() + 1000000));
    harness.Drain();
  }

  // Phase C — the fault clears; past the cooldown a probe write (an update
  // of certainly-resident keys would need none, but any successful write
  // closes the breaker) recovers the server.
  server->clock()->Advance(sopt.breaker.cooldown_ticks + 1);
  {
    auto probe = testing::UniqueKeys(4, seed + 31337);
    auto pvals = testing::SequentialValues(probe.size());
    harness.Submit(InsertReq(probe, pvals, server->now() + 1000000));
    harness.Drain();
  }
  EXPECT_GE(server->breaker().recoveries(), 1u)
      << "breaker never recovered after the fault cleared";
  EXPECT_FALSE(server->read_only());

  // Phase D — healthy traffic again (light lock faults only).
  {
    gpusim::FaultInjectorConfig cfg;
    cfg.seed = seed + 2;
    cfg.trylock_fail_probability = 0.05;
    gpusim::ScopedFaultInjection scoped(cfg);
    for (int round = 25; round < 50; ++round) run_round(round);
  }

  harness.Finish();
}

TEST(TableServerChaosTest, ShadowMapSoakWithFaultsAndDeadlines) {
  // Failures print the seed; rerun it locally with DYCUCKOO_CHAOS_SEED.
  const uint64_t seed = testing::ChaosSeedFromEnv(7);
  SCOPED_TRACE("DYCUCKOO_CHAOS_SEED=" + std::to_string(seed));
  ChaosOutcome run1;
  RunChaos(seed, &run1);

  // >= 50k mixed ops were driven through the server.
  EXPECT_GE(run1.ok + run1.deadline_unexecuted + run1.deadline_partial +
                run1.queue_full + run1.unavailable + run1.partial_failures,
            500u);  // requests; each carries kChaosOpsPerRequest ops
  // Every submitted request produced a retrievable response.
  EXPECT_FALSE(run1.missing_response);
  // All three overload codes were exercised, and rejections were explicit.
  EXPECT_GT(run1.deadline_unexecuted, 0u);
  EXPECT_GT(run1.queue_full, 0u);
  EXPECT_GT(run1.unavailable, 0u);
  // Correctness against the shadow map.
  EXPECT_FALSE(run1.find_mismatch);
  EXPECT_FALSE(run1.erase_mismatch);
  EXPECT_FALSE(run1.lost_key);
  EXPECT_FALSE(run1.phantom_key);
  // The breaker tripped and recovered.
  EXPECT_GE(run1.trips, 1u);
  EXPECT_GE(run1.recoveries, 1u);

  // Bit-identical reproduction: a second run with the same seed must match
  // in every observable, including the op-level digest.
  ChaosOutcome run2;
  RunChaos(seed, &run2);
  EXPECT_EQ(run1.digest, run2.digest);
  EXPECT_EQ(run1.ok, run2.ok);
  EXPECT_EQ(run1.deadline_unexecuted, run2.deadline_unexecuted);
  EXPECT_EQ(run1.deadline_partial, run2.deadline_partial);
  EXPECT_EQ(run1.queue_full, run2.queue_full);
  EXPECT_EQ(run1.unavailable, run2.unavailable);
  EXPECT_EQ(run1.partial_failures, run2.partial_failures);
  EXPECT_EQ(run1.trips, run2.trips);
  EXPECT_EQ(run1.recoveries, run2.recoveries);
  EXPECT_EQ(run1.final_size, run2.final_size);
  EXPECT_EQ(run1.final_ticks, run2.final_ticks);
}

}  // namespace
}  // namespace service
}  // namespace dycuckoo
