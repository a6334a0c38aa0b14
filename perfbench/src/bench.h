// What every workload shares: the run's options, its result, the measured
// phase (wall clock, slices, tracing toggles, check-time exclusion) and
// counter deltas over objects that may come and go (shards).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dycuckoo/options.h"
#include "dycuckoo/stats.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

/// The simulated device every workload runs on.
struct Env {
  unsigned grid_workers = 1;
  dycuckoo::gpusim::Grid* grid = nullptr;
  dycuckoo::gpusim::DeviceArena* arena = nullptr;
  SpanRecorder* rec = nullptr;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  JsonObject detail;  // distribution or ratio base
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // first few failures, for the log
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> report_only;  // in the report, not the result line
  JsonObject workload_info;

  /// An output check rejected `ops` results.
  void CheckFailed(const std::string& what, uint64_t ops = 1) {
    correct = false;
    failed += ops;
    Note(what);
  }
  /// `ops` operations failed in the program (non-OK status).
  void OpsFailed(const std::string& what, uint64_t ops) {
    failed += ops;
    Note(what);
  }
  void Note(const std::string& what) {
    if (notes.size() < 20) notes.push_back(what);
  }

  void EndToEnd(std::string name, std::string unit, double value,
                JsonObject detail = {}) {
    end_to_end.push_back({std::move(name), std::move(unit), value,
                          std::move(detail)});
  }
  void Layer(std::string name, std::string unit, double value,
             JsonObject detail = {}) {
    per_layer.push_back({std::move(name), std::move(unit), value,
                         std::move(detail)});
  }
};

/// Samples needed so that p99 has at least ten samples beyond it.
inline constexpr size_t kMinLatencySamples = 1000;

/// Hard cap on the phase when samples come slowly: 3 * seconds + 20 s.
inline constexpr double kMaxSecondsFactor = 3;
inline constexpr double kMaxExtraSeconds = 20;

/// The measured phase.  It lasts `seconds` of wall time (longer only if
/// fewer than kMinLatencySamples requests completed, up to the cap), is cut
/// into fixed slices for throughput medians, and in the traced run turns
/// span recording on in every other slice, so the untraced slices give
/// the baseline the tracing overhead is measured against.  Time spent in
/// the benchmark's own output checks is excluded from every rate.
class MeasuredPhase {
 public:
  static constexpr double kSliceSeconds = 0.5;

  MeasuredPhase(const Options& opt, SpanRecorder* rec)
      : seconds_(opt.seconds), trace_mode_(opt.trace), rec_(rec) {}

  void Start() {
    start_ = Clock::now();
    slice_start_ = start_;
    rec_->set_enabled(trace_mode_);
  }

  /// Whether to issue another request; closes slices as time passes.
  /// A workload whose requests form larger units of equal work (churn's
  /// timeline passes) passes `boundary` = false inside a unit, so slices
  /// and the phase itself end only between units.
  bool Continue(bool boundary = true) {
    if (!boundary) return true;
    const Clock::time_point now = Clock::now();
    if (std::chrono::duration<double>(now - slice_start_).count() >=
        kSliceSeconds) {
      CloseSlice(now);
    }
    const double elapsed = std::chrono::duration<double>(now - start_).count();
    const size_t samples = latency_[0].size() + latency_[1].size();
    if (elapsed >= kMaxSecondsFactor * seconds_ + kMaxExtraSeconds) {
      return false;
    }
    return elapsed < seconds_ || samples < kMinLatencySamples;
  }

  /// Ends the phase (closing the partial last slice).
  void Finish() {
    const Clock::time_point now = Clock::now();
    // A last slice shorter than half a slice is too short to rate.
    if (slice_ops_ > 0 &&
        std::chrono::duration<double>(now - slice_start_).count() >=
            kSliceSeconds / 2) {
      CloseSlice(now);
    }
    rec_->set_enabled(false);
  }

  bool traced() const { return rec_->enabled(); }

  void Ops(uint64_t n) {
    slice_ops_ += n;
    ops_[traced()] += n;
  }
  void Latency(double us) { latency_[traced()].push_back(us); }

  /// Brackets the benchmark's own checking so it is not billed.
  void CheckBegin() { check_start_ = Clock::now(); }
  void CheckEnd() {
    slice_check_s_ += SecondsSince(check_start_);
  }

  /// Per-slice throughput, untraced [0] or traced [1] slices.
  const std::vector<double>& slice_rates(bool traced) const {
    return rates_[traced];
  }
  const std::vector<double>& latencies(bool traced) const {
    return latency_[traced];
  }
  uint64_t ops(bool traced) const { return ops_[traced]; }
  /// Time in closed slices, without (busy) or with the checks (wall).
  double busy_seconds(bool traced) const { return busy_s_[traced]; }
  double wall_seconds(bool traced) const { return wall_s_[traced]; }

 private:
  void CloseSlice(Clock::time_point now) {
    const bool was_traced = traced();
    const double busy =
        std::chrono::duration<double>(now - slice_start_).count() -
        slice_check_s_;
    if (busy > 0 && slice_ops_ > 0) {
      rates_[was_traced].push_back(static_cast<double>(slice_ops_) / busy);
    }
    busy_s_[was_traced] += busy;
    wall_s_[was_traced] +=
        std::chrono::duration<double>(now - slice_start_).count();
    slice_ops_ = 0;
    slice_check_s_ = 0;
    slice_start_ = now;
    if (trace_mode_) rec_->set_enabled(!was_traced);
  }

  double seconds_;
  bool trace_mode_;
  SpanRecorder* rec_;
  Clock::time_point start_, slice_start_, check_start_;
  uint64_t slice_ops_ = 0;
  double slice_check_s_ = 0;
  std::array<double, 2> busy_s_{};
  std::array<double, 2> wall_s_{};
  std::array<uint64_t, 2> ops_{};
  std::array<std::vector<double>, 2> rates_;
  std::array<std::vector<double>, 2> latency_;
};

/// Sums counter deltas over a set of objects that can appear and vanish
/// between two snapshots (shards split off or retired): an object seen in
/// both contributes after - before, a new one contributes all it counted.
template <size_t N>
class CounterDeltas {
 public:
  using Counters = std::array<uint64_t, N>;
  using Snapshot = std::vector<std::pair<const void*, Counters>>;

  void Add(const Snapshot& before, const Snapshot& after) {
    for (const auto& [id, now] : after) {
      const Counters* base = nullptr;
      for (const auto& [bid, b] : before) {
        if (bid == id) base = &b;
      }
      for (size_t i = 0; i < N; ++i) {
        // A counter that went backwards is a new object at a recycled
        // address: count it from zero.
        const uint64_t b = (base != nullptr && (*base)[i] <= now[i])
                               ? (*base)[i] : 0;
        total_[i] += now[i] - b;
      }
    }
  }
  /// Delta of a single long-lived object.
  void Add(const Counters& before, const Counters& after) {
    for (size_t i = 0; i < N; ++i) total_[i] += after[i] - before[i];
  }
  uint64_t operator[](size_t i) const { return total_[i]; }

 private:
  Counters total_{};
};

// --- Shared by the workloads (layers.cc) ------------------------------------

/// Exits with status 2 (a set-up error, not a measurement) unless `st` is OK.
void CheckSetup(const dycuckoo::Status& st, const char* what);

/// `count` distinct keys derived from `seed`, never the empty-key sentinel.
std::vector<uint32_t> MakeKeys(uint64_t seed, uint32_t count);

/// Table options every workload shares: paper bounds, the run's grid and
/// arena, and a fixed hash seed (configuration, not input).
dycuckoo::DyCuckooOptions BaseTableOptions(const Env& env);

/// gpusim profiling counters the per-layer metrics read.
enum SimCtr { kCas, kCasFailed, kExch, kBucketReads, kLockConflicts, kNumSim };
using SimCounters = std::array<uint64_t, kNumSim>;
SimCounters ReadSimCounters();

/// TableStats counters the per-layer metrics read.
enum TableCtr {
  kFinds, kFindHits, kEvictions, kUpsizes, kDownsizes, kRehashed, kParked,
  kHandoffFull, kNumTableCtr
};
using TableCounters = std::array<uint64_t, kNumTableCtr>;
TableCounters ReadTableCounters(const dycuckoo::TableStats& stats);

/// The gpusim.* metrics: per-op ratios over `ops` (named `ops_base` in the
/// report) and lock conflicts per insert over `inserts`.
void EmitGpusimLayers(const CounterDeltas<kNumSim>& sim, double ops,
                      const char* ops_base, double inserts,
                      const char* inserts_base, RunResult* out);

/// The dycuckoo.* metrics read from TableStats deltas and theta samples.
void EmitTableCounterLayers(const CounterDeltas<kNumTableCtr>& table,
                            double inserts, const char* inserts_base,
                            const std::vector<double>& filled_factor,
                            RunResult* out);

/// Shared end-to-end metrics from a finished phase.
void EmitEndToEnd(const MeasuredPhase& phase, const std::vector<double>& setup_s,
                  const std::vector<double>& bytes_per_kv, RunResult* out);

/// Traced-run metrics every workload reports: tracing overhead (traced
/// slices against untraced ones) and self time per layer.
void EmitTraceSummary(const MeasuredPhase& phase, const SpanRecorder& rec,
                      RunResult* out);

/// Workload entry points.
void RunChurn(const Options& opt, const Env& env, RunResult* out);
void RunLookup(const Options& opt, const Env& env, RunResult* out);
void RunServe(const Options& opt, const Env& env, RunResult* out);
void RunReshard(const Options& opt, const Env& env, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
