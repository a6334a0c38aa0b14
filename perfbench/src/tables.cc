// The two workloads that call DynamicTable directly.
//
// churn:  the paper's dynamic timeline (TW-profile dataset, r = 0.2, one
//         find per insert, then the swapped drain phase) replayed on one
//         auto-resizing DyCuckooMap, pass after pass.  A request is one
//         timeline batch: its BulkInsert, BulkFind and BulkErase calls.
// lookup: BulkFind batches over a table preloaded to theta ~ 0.8, half of
//         the probed keys present and half absent.  A request is one
//         BulkFind call.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "check.h"
#include "common/rng.h"
#include "dycuckoo/dycuckoo.h"
#include "workload/dataset.h"
#include "workload/dynamic_workload.h"

namespace perfbench {
namespace {

using dycuckoo::DyCuckooMap;
using dycuckoo::Status;

// churn sizing: ~1M TW pairs, 8192-insert batches (about 18k ops each),
// one pass of the timeline (grow then drain) takes about two seconds.
constexpr double kChurnScale = 0.02;
constexpr uint64_t kChurnBatch = 8192;

// lookup sizing: 2^22 keys in 5 * 2^20 slots (theta = 0.8, ~47 MB of
// buckets), probed in 16k-key batches from a pool of 128 batches.  A call
// takes about 3 ms, so waking the grid's workers is a small part of it,
// and a 20 s run has several 1000-call latency windows.
constexpr uint32_t kLookupKeys = 1u << 22;
constexpr uint64_t kLookupBatch = 16384;
constexpr uint64_t kLookupPoolBatches = 128;
constexpr uint64_t kPreloadBatch = 1u << 20;

/// Per-layer accounting for the traced slices of a table workload.
struct TableTrace {
  CounterDeltas<kNumTableCtr> table;
  CounterDeltas<kNumSim> sim;
  uint64_t ops = 0;
  double insert_s = 0, find_s = 0, erase_s = 0;
  uint64_t insert_keys = 0, find_keys = 0, erase_keys = 0;
  std::vector<double> resize_call_ms, plain_call_ms;
  std::vector<double> filled_factor;
};

/// Runs one mutating call, timing it and (when traced) attributing it to
/// resize work if a resize counter moved while it ran.
template <typename Fn>
Status TimedMutation(SpanRecorder* rec, uint32_t parent, const char* name,
                     const DyCuckooMap& table, TableTrace* tr, double* secs,
                     Fn&& fn) {
  const bool traced = rec->enabled();
  const auto before = traced ? table.stats().Capture()
                             : dycuckoo::TableStats::Snapshot{};
  const uint32_t id = rec->Open("dycuckoo", name, parent);
  const Clock::time_point t0 = Clock::now();
  Status st = fn();
  const double s = SecondsSince(t0);
  rec->Close(id);
  if (traced) {
    const auto after = table.stats().Capture();
    const bool resized = after.upsizes != before.upsizes ||
                         after.downsizes != before.downsizes;
    rec->Tag(id, resized ? "resize" : "");
    (resized ? tr->resize_call_ms : tr->plain_call_ms).push_back(s * 1e3);
    *secs += s;
  }
  return st;
}

void EmitTableLayers(const TableTrace& tr, RunResult* out) {
  const double inserts = static_cast<double>(tr.insert_keys);
  EmitGpusimLayers(tr.sim, static_cast<double>(tr.ops), "ops", inserts,
                   "inserts", out);
  auto per_key = [&](const char* name, double s, uint64_t keys) {
    const Ratio r{s * 1e9, static_cast<double>(keys)};
    out->Layer(name, "ns", r.value(), RatioJson(r, "span_ns", "keys"));
  };
  per_key("dycuckoo.insert_ns_per_key", tr.insert_s, tr.insert_keys);
  per_key("dycuckoo.erase_ns_per_key", tr.erase_s, tr.erase_keys);
  per_key("dycuckoo.find_ns_per_key", tr.find_s, tr.find_keys);
  const Summary resize = Summarize(tr.resize_call_ms);
  const Summary plain = Summarize(tr.plain_call_ms);
  out->Layer("dycuckoo.resize_call_ms_p50", "ms", resize.median,
             SummaryJson(resize));
  out->Layer("dycuckoo.plain_call_ms_p50", "ms", plain.median,
             SummaryJson(plain));
  EmitTableCounterLayers(tr.table, inserts, "inserts", tr.filled_factor, out);
}

// --- churn -----------------------------------------------------------------

struct ChurnInput {
  std::vector<dycuckoo::workload::DynamicBatch> batches;
  // Expected hit flag of every find, per batch: for the first pass (empty
  // table) and for every later pass (table left by a full pass).
  std::vector<std::vector<uint8_t>> expect_first, expect_steady;
  PairSet written;          // every (key, value) some insert wrote
  uint64_t end_size = 0;    // live keys after a full pass
  uint64_t ops_per_pass = 0;
};

/// Replays the timeline on a host-side membership map starting from
/// `live`, recording every find's expected flag.
void SimulatePass(const ChurnInput& in, const KeyIndex& index,
                  std::vector<uint8_t>* live,
                  std::vector<std::vector<uint8_t>>* expect) {
  expect->resize(in.batches.size());
  for (size_t b = 0; b < in.batches.size(); ++b) {
    const auto& batch = in.batches[b];
    for (uint32_t k : batch.insert_keys) (*live)[index.Find(k)] = 1;
    auto& flags = (*expect)[b];
    flags.resize(batch.find_keys.size());
    for (size_t i = 0; i < batch.find_keys.size(); ++i) {
      const uint32_t id = index.Find(batch.find_keys[i]);
      flags[i] = id != KeyIndex::kMissing && (*live)[id];
    }
    for (uint32_t k : batch.delete_keys) {
      const uint32_t id = index.Find(k);
      if (id != KeyIndex::kMissing) (*live)[id] = 0;
    }
  }
}

void BuildChurnInput(uint64_t seed, ChurnInput* in) {
  namespace wl = dycuckoo::workload;
  wl::Dataset ds;
  CheckSetup(wl::MakeDataset(wl::DatasetId::kTwitter, kChurnScale, seed, &ds),
              "MakeDataset");
  wl::DynamicWorkloadOptions wo;
  wo.batch_size = kChurnBatch;
  wo.delete_ratio = 0.2;
  wo.find_ratio = 1.0;
  wo.include_swapped_phase = true;
  wo.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  CheckSetup(wl::BuildDynamicWorkload(ds, wo, &in->batches),
              "BuildDynamicWorkload");
  in->ops_per_pass = wl::TotalOps(in->batches);

  std::vector<uint32_t> keys;
  in->written.Reserve(2 * ds.size());
  for (const auto& b : in->batches) {
    for (size_t i = 0; i < b.insert_keys.size(); ++i) {
      in->written.Insert(b.insert_keys[i], b.insert_values[i]);
      keys.push_back(b.insert_keys[i]);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const KeyIndex index(keys);
  std::vector<uint8_t> live(keys.size(), 0);
  SimulatePass(*in, index, &live, &in->expect_first);
  SimulatePass(*in, index, &live, &in->expect_steady);
  for (uint8_t x : live) in->end_size += x;
}

}  // namespace

void RunChurn(const Options& opt, const Env& env, RunResult* out) {
  SpanRecorder* rec = env.rec;
  std::vector<double> setup_s;
  ChurnInput in;
  std::unique_ptr<DyCuckooMap> table;
  while (MoreSetups(setup_s)) {
    table.reset();
    in = ChurnInput{};
    const Clock::time_point t0 = Clock::now();
    BuildChurnInput(opt.seed, &in);
    CheckSetup(DyCuckooMap::Create(BaseTableOptions(env), &table), "Create");
    setup_s.push_back(SecondsSince(t0));
  }

  MeasuredPhase phase(opt, rec);
  TableTrace tr;
  std::vector<double> bytes_per_kv;
  std::vector<uint8_t> found;
  std::vector<uint32_t> values;
  size_t b = 0;
  uint64_t pass = 0;
  uint64_t batches_run = 0;
  phase.Start();
  // Slices (throughput samples, trace toggles) and the phase end only
  // between whole passes, so every slice holds the same mix of growth and
  // drain batches.
  while (phase.Continue(/*boundary=*/b == 0)) {
    const auto& batch = in.batches[b];
    const bool traced = rec->enabled();
    const TableCounters tc0 = traced ? ReadTableCounters(table->stats()) : TableCounters{};
    const SimCounters sc0 = traced ? ReadSimCounters() : SimCounters{};
    found.assign(batch.find_keys.size(), 0);
    values.assign(batch.find_keys.size(), 0);

    uint64_t insert_failed = 0;
    const uint32_t req = rec->Open("bench", "churn_batch", 0, batches_run + 1);
    const Clock::time_point t0 = Clock::now();
    Status ins = TimedMutation(rec, req, "BulkInsert", *table, &tr,
                               &tr.insert_s, [&] {
      return table->BulkInsert(batch.insert_keys, batch.insert_values,
                               &insert_failed);
    });
    {
      const uint32_t id = rec->Open("dycuckoo", "BulkFind", req);
      const Clock::time_point f0 = Clock::now();
      table->BulkFind(batch.find_keys, values.data(), found.data());
      if (traced) tr.find_s += SecondsSince(f0);
      rec->Close(id);
    }
    Status era = TimedMutation(rec, req, "BulkErase", *table, &tr,
                               &tr.erase_s, [&] {
      return table->BulkErase(batch.delete_keys);
    });
    const double us = MicrosBetween(t0, Clock::now());
    rec->Close(req);
    phase.Latency(us);
    phase.Ops(batch.total_ops());

    if (traced) {
      tr.table.Add(tc0, ReadTableCounters(table->stats()));
      tr.sim.Add(sc0, ReadSimCounters());
      tr.ops += batch.total_ops();
      tr.insert_keys += batch.insert_keys.size();
      tr.find_keys += batch.find_keys.size();
      tr.erase_keys += batch.delete_keys.size();
      tr.filled_factor.push_back(table->filled_factor());
    }

    phase.CheckBegin();
    const uint32_t chk = rec->Open("bench", "check", req);
    out->attempted += batch.total_ops();
    if (!ins.ok()) {
      out->OpsFailed("BulkInsert: " + ins.ToString(),
                     insert_failed > 0 ? insert_failed
                                       : batch.insert_keys.size());
    }
    if (!era.ok()) {
      out->OpsFailed("BulkErase: " + era.ToString(), batch.delete_keys.size());
    }
    const auto& expect = pass == 0 ? in.expect_first[b] : in.expect_steady[b];
    const uint64_t bad =
        CheckFinds(batch.find_keys.data(), found.data(), values.data(),
                   expect.data(), batch.find_keys.size(), in.written);
    if (bad > 0) {
      out->CheckFailed("churn pass " + std::to_string(pass) + " batch " +
                           std::to_string(b) + ": " + std::to_string(bad) +
                           " wrong finds",
                       bad);
    }
    if (table->size() > 0) {
      bytes_per_kv.push_back(static_cast<double>(table->memory_bytes()) /
                             static_cast<double>(table->size()));
    }
    if (++b == in.batches.size()) {
      if (table->size() != in.end_size) {
        out->CheckFailed("churn pass " + std::to_string(pass) + " ends with " +
                         std::to_string(table->size()) + " keys, expected " +
                         std::to_string(in.end_size));
      }
      b = 0;
      ++pass;
    }
    rec->Close(chk);
    phase.CheckEnd();
    ++batches_run;
  }
  phase.Finish();

  const Status valid = table->Validate();
  if (!valid.ok()) out->CheckFailed("Validate: " + valid.ToString());

  out->workload_info.Int("batches", batches_run)
      .Num("passes", static_cast<double>(pass) +
                         static_cast<double>(b) /
                             static_cast<double>(in.batches.size()))
      .Int("batch_inserts", kChurnBatch)
      .Int("timeline_batches", in.batches.size())
      .Int("ops_per_pass", in.ops_per_pass)
      .Int("final_size", table->size());
  if (opt.trace) {
    EmitTableLayers(tr, out);
    EmitTraceSummary(phase, *rec, out);
  } else {
    EmitEndToEnd(phase, setup_s, bytes_per_kv, out);
  }
}

// --- lookup ----------------------------------------------------------------

namespace {

/// The value the lookup workload stores under `key`.
uint32_t LookupValue(uint32_t key) {
  const uint64_t x = (key ^ 0xA5A5A5A5ULL) * 0x9E3779B97F4A7C15ULL;
  return static_cast<uint32_t>(x >> 32);
}

struct LookupInput {
  std::vector<uint32_t> present;   // preloaded
  std::vector<uint32_t> values;
  std::vector<uint32_t> queries;   // pool of probe keys
  std::vector<uint8_t> expected;   // hit flag per probe
};

void BuildLookupInput(uint64_t seed, LookupInput* in) {
  std::vector<uint32_t> keys = MakeKeys(seed, 2 * kLookupKeys);
  in->present.assign(keys.begin(), keys.begin() + kLookupKeys);
  in->values.resize(kLookupKeys);
  for (uint32_t i = 0; i < kLookupKeys; ++i) {
    in->values[i] = LookupValue(in->present[i]);
  }
  dycuckoo::Xoroshiro128 rng(seed ^ 0x100C0FULL);
  const uint64_t n = kLookupBatch * kLookupPoolBatches;
  in->queries.resize(n);
  in->expected.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t pick = rng.NextBounded(keys.size());
    in->queries[i] = keys[pick];
    in->expected[i] = pick < kLookupKeys;
  }
}

}  // namespace

void RunLookup(const Options& opt, const Env& env, RunResult* out) {
  SpanRecorder* rec = env.rec;
  std::vector<double> setup_s;
  LookupInput in;
  std::unique_ptr<DyCuckooMap> table;
  while (MoreSetups(setup_s)) {
    table.reset();
    in = LookupInput{};
    const Clock::time_point t0 = Clock::now();
    BuildLookupInput(opt.seed, &in);
    CheckSetup(DyCuckooMap::Create(BaseTableOptions(env), &table), "Create");
    CheckSetup(table->Reserve(kLookupKeys), "Reserve");
    for (uint64_t i = 0; i < kLookupKeys; i += kPreloadBatch) {
      const uint64_t n = std::min<uint64_t>(kPreloadBatch, kLookupKeys - i);
      CheckSetup(table->BulkInsert({in.present.data() + i, n},
                                    {in.values.data() + i, n}),
                  "preload");
    }
    setup_s.push_back(SecondsSince(t0));
  }
  if (table->size() != kLookupKeys) {
    out->CheckFailed("preload holds " + std::to_string(table->size()) +
                     " keys, expected " + std::to_string(kLookupKeys));
  }

  MeasuredPhase phase(opt, rec);
  TableTrace tr;
  std::vector<double> bytes_per_kv;
  std::vector<uint8_t> found(kLookupBatch);
  std::vector<uint32_t> values(kLookupBatch);
  uint64_t calls = 0;
  phase.Start();
  while (phase.Continue()) {
    const uint64_t off = (calls % kLookupPoolBatches) * kLookupBatch;
    const uint32_t* q = in.queries.data() + off;
    const bool traced = rec->enabled();
    const TableCounters tc0 = traced ? ReadTableCounters(table->stats()) : TableCounters{};
    const SimCounters sc0 = traced ? ReadSimCounters() : SimCounters{};

    const uint32_t id = rec->Open("dycuckoo", "BulkFind", 0, calls + 1);
    const Clock::time_point t0 = Clock::now();
    table->BulkFind({q, kLookupBatch}, values.data(), found.data());
    const double us = MicrosBetween(t0, Clock::now());
    rec->Close(id);
    phase.Latency(us);
    phase.Ops(kLookupBatch);
    if (traced) {
      tr.table.Add(tc0, ReadTableCounters(table->stats()));
      tr.sim.Add(sc0, ReadSimCounters());
      tr.ops += kLookupBatch;
      tr.find_keys += kLookupBatch;
      tr.find_s += us * 1e-6;
      tr.filled_factor.push_back(table->filled_factor());
    }

    phase.CheckBegin();
    const uint32_t chk = rec->Open("bench", "check", id);
    out->attempted += kLookupBatch;
    uint64_t bad = 0;
    for (uint64_t i = 0; i < kLookupBatch; ++i) {
      const bool hit = found[i] != 0;
      if (hit != (in.expected[off + i] != 0) ||
          (hit && values[i] != LookupValue(q[i]))) {
        ++bad;
      }
    }
    if (bad > 0) {
      out->CheckFailed("lookup call " + std::to_string(calls) + ": " +
                           std::to_string(bad) + " wrong finds",
                       bad);
    }
    bytes_per_kv.push_back(static_cast<double>(table->memory_bytes()) /
                           static_cast<double>(table->size()));
    rec->Close(chk);
    phase.CheckEnd();
    ++calls;
  }
  phase.Finish();

  const Status valid = table->Validate();
  if (!valid.ok()) out->CheckFailed("Validate: " + valid.ToString());

  out->workload_info.Int("calls", calls)
      .Int("batch_keys", kLookupBatch)
      .Int("table_keys", table->size())
      .Num("filled_factor", table->filled_factor())
      .Int("table_bytes", table->memory_bytes());
  if (opt.trace) {
    EmitTableLayers(tr, out);
    EmitTraceSummary(phase, *rec, out);
  } else {
    EmitEndToEnd(phase, setup_s, bytes_per_kv, out);
  }
}

}  // namespace perfbench
