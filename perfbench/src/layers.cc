// Helpers the workloads share: set-up checks, key generation, table
// options, and reading and reporting the gpusim and TableStats counters.

#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "common/rng.h"
#include "dycuckoo/dycuckoo.h"
#include "gpusim/sim_counters.h"

namespace perfbench {

void CheckSetup(const dycuckoo::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

namespace {

/// A bijection on 32-bit words (xorshift-multiply rounds), so distinct
/// inputs give distinct keys.
uint32_t Scramble(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

}  // namespace

std::vector<uint32_t> MakeKeys(uint64_t seed, uint32_t count) {
  std::vector<uint32_t> keys;
  keys.reserve(count);
  const uint32_t offset =
      static_cast<uint32_t>(dycuckoo::SplitMix64(seed).Next());
  for (uint32_t i = 0; keys.size() < count; ++i) {
    const uint32_t k = Scramble(i + offset);
    if (k != dycuckoo::DyCuckooMap::kEmptyKey) keys.push_back(k);
  }
  return keys;
}

dycuckoo::DyCuckooOptions BaseTableOptions(const Env& env) {
  dycuckoo::DyCuckooOptions o;
  o.lower_bound = 0.30;
  o.upper_bound = 0.85;
  o.seed = 0x5EEDC0FFEEULL;
  o.grid = env.grid;
  o.arena = env.arena;
  return o;
}

SimCounters ReadSimCounters() {
  const auto s = dycuckoo::gpusim::SimCounters::Get().Capture();
  return {s.atomic_cas, s.atomic_cas_failed, s.atomic_exch, s.bucket_reads,
          s.lock_conflicts};
}

TableCounters ReadTableCounters(const dycuckoo::TableStats& stats) {
  const auto s = stats.Capture();
  return {s.finds,     s.find_hits,    s.evictions,      s.upsizes,
          s.downsizes, s.rehashed_kvs, s.parked_victims,
          s.handoff_full_fallbacks};
}

void EmitGpusimLayers(const CounterDeltas<kNumSim>& sim, double ops,
                      const char* ops_base, double inserts,
                      const char* inserts_base, RunResult* out) {
  const Ratio reads{static_cast<double>(sim[kBucketReads]), ops};
  const Ratio atomics{static_cast<double>(sim[kCas] + sim[kExch]), ops};
  const Ratio cas_fail{static_cast<double>(sim[kCasFailed]),
                       static_cast<double>(sim[kCas])};
  const Ratio conflicts{static_cast<double>(sim[kLockConflicts]), inserts};
  out->Layer("gpusim.bucket_reads_per_op", "1/op", reads.value(),
             RatioJson(reads, "bucket_reads", ops_base));
  out->Layer("gpusim.atomics_per_op", "1/op", atomics.value(),
             RatioJson(atomics, "cas_plus_exch", ops_base));
  out->Layer("gpusim.cas_fail_ratio", "1", cas_fail.value(),
             RatioJson(cas_fail, "cas_failed", "cas"));
  out->Layer("gpusim.lock_conflicts_per_insert", "1/op", conflicts.value(),
             RatioJson(conflicts, "lock_conflicts", inserts_base));
}

void EmitTableCounterLayers(const CounterDeltas<kNumTableCtr>& table,
                            double inserts, const char* inserts_base,
                            const std::vector<double>& filled_factor,
                            RunResult* out) {
  auto per_insert = [&](const char* name, const char* num, uint64_t n) {
    const Ratio r{static_cast<double>(n), inserts};
    out->Layer(name, "1/op", r.value(), RatioJson(r, num, inserts_base));
  };
  per_insert("dycuckoo.rehashed_kvs_per_insert", "rehashed_kvs",
             table[kRehashed]);
  per_insert("dycuckoo.evictions_per_insert", "evictions", table[kEvictions]);
  per_insert("dycuckoo.parked_victims_per_insert", "parked_victims",
             table[kParked]);
  out->Layer("dycuckoo.upsizes", "count", static_cast<double>(table[kUpsizes]));
  out->Layer("dycuckoo.downsizes", "count",
             static_cast<double>(table[kDownsizes]));
  out->Layer("dycuckoo.handoff_full_fallbacks", "count",
             static_cast<double>(table[kHandoffFull]));
  const Summary ff = Summarize(filled_factor);
  out->Layer("dycuckoo.filled_factor_mean", "1", ff.mean, SummaryJson(ff));
  const Ratio hits{static_cast<double>(table[kFindHits]),
                   static_cast<double>(table[kFinds])};
  out->Layer("dycuckoo.find_hit_ratio", "1", hits.value(),
             RatioJson(hits, "find_hits", "finds"));
}

}  // namespace perfbench
