// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <churn|lookup|serve|reshard> --seed <n>
//             --seconds <s> --trace <0|1> [--git-rev <rev>]
//             [--src-digest <hex>] [--trace-dir <dir>]
//
// Generates the workload's inputs from the seed, sets up several times,
// measures for the given seconds on one driver thread plus a gpusim grid
// of nproc - 1 workers (at most 3), checks every result, and prints two
// JSON lines: a report (provenance, every metric with its distribution or
// ratio base, workload facts, failures), then, last, the result line
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics.  --trace 1 reports the per-layer metrics of a run
// that records spans in every other slice, with the tracing overhead
// measured against the untraced slices, and writes the spans as CSV into
// --trace-dir.
//
// Exits 1 when an output check failed, 2 on a usage or set-up error.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void EmitEndToEnd(const MeasuredPhase& phase, const std::vector<double>& setup_s,
                  const std::vector<double>& bytes_per_kv, RunResult* out) {
  const std::vector<double>& samples = phase.latencies(false);
  const Summary lat = Summarize(samples);
  const Summary rate = Summarize(phase.slice_rates(false));
  const Summary setup = Summarize(setup_s);
  const Summary bpk = Summarize(bytes_per_kv);
  const LatencyWindows win = SummarizeWindows(samples, kMinLatencySamples);
  if (win.p99.empty()) {
    out->CheckFailed("only " + std::to_string(lat.n) +
                     " latency samples: p99 needs ten beyond it");
  }
  JsonObject rate_detail = SummaryJson(rate);
  rate_detail.Num("overall", static_cast<double>(phase.ops(false)) /
                                 phase.busy_seconds(false));
  out->EndToEnd("ops_per_s", "1/s", rate.median, rate_detail);
  // Latency percentiles are taken per window of consecutive requests and
  // reported as the median over windows, so a disturbance of the host that
  // spans a minority of the windows does not set them; the percentiles
  // over all samples are in the report too.
  //
  // p99 is printed in the report only, not in the result line.  On a
  // shared 4-vCPU host the guest scheduler preempts a grid worker for a
  // millisecond or two tens of times a second, and the launch waits for
  // it, so about one lookup call or serve request in a hundred is held up
  // by how busy the host is, not by the program: their p99 spread 20-70%
  // over ten runs of one build, while the medians stayed within 10%.
  auto latency = [&](const char* name, unsigned pct,
                     const std::vector<double>& per_window) {
    const Summary w = Summarize(per_window);
    JsonObject d = SummaryJson(w);
    d.Int("windows", w.n)
        .Int("samples", lat.n)
        .Num("all_samples", pct == 50 ? lat.median : lat.p99)
        .Int("samples_beyond_in_smallest_window",
             SamplesBeyond(win.smallest, pct));
    return Metric{name, "us", w.median, d};
  };
  out->end_to_end.push_back(latency("latency_p50_us", 50, win.p50));
  out->report_only.push_back(latency("latency_p99_us", 99, win.p99));
  out->EndToEnd("bytes_per_kv", "B", bpk.mean, SummaryJson(bpk));
  out->EndToEnd("setup_s", "s", setup.median, SummaryJson(setup));
}

void EmitTraceSummary(const MeasuredPhase& phase, const SpanRecorder& rec,
                      RunResult* out) {
  const Summary off_rate = Summarize(phase.slice_rates(false));
  const Summary on_rate = Summarize(phase.slice_rates(true));
  const Summary off_lat = Summarize(phase.latencies(false));
  const Summary on_lat = Summarize(phase.latencies(true));
  auto pct = [](double traced, double untraced) {
    return untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0;
  };
  JsonObject rate_detail;
  rate_detail.Obj("traced", SummaryJson(on_rate))
      .Obj("untraced", SummaryJson(off_rate));
  out->Layer("trace.overhead_ops_per_s_pct", "%",
             pct(on_rate.median, off_rate.median), rate_detail);
  JsonObject lat_detail;
  lat_detail.Obj("traced", SummaryJson(on_lat))
      .Obj("untraced", SummaryJson(off_lat));
  out->Layer("trace.overhead_latency_p50_pct", "%",
             pct(on_lat.median, off_lat.median), lat_detail);
  out->Layer("trace.spans", "count", static_cast<double>(rec.spans().size()));

  // Self time per layer, as a share of the traced slices' wall time.
  // Durability work runs inside Step, so from outside it is service time;
  // its own span (recovery) runs after the phase.  Request spans ("client") overlap each other by design (16 requests
  // are outstanding at once), so they are summarized apart: the share of
  // a request's life spent waiting outside its own Submit/TakeResponse
  // calls.
  const auto self = rec.SelfTimeByLayerNs();
  const double traced_ns = phase.wall_seconds(true) * 1e9;
  for (const char* layer : {"bench", "dycuckoo", "service"}) {
    const auto it = self.find(layer);
    const Ratio r{it == self.end() ? 0.0 : static_cast<double>(it->second),
                  traced_ns};
    out->Layer(std::string("trace.self_share.") + layer, "1", r.value(),
               RatioJson(r, "self_ns", "traced_ns"));
  }
  Ratio wait;
  const auto client = self.find("client");
  if (client != self.end()) {
    wait.num = static_cast<double>(client->second);
    for (const Span& s : rec.spans()) {
      if (std::strcmp(s.layer, "client") == 0) {
        wait.base += static_cast<double>(s.duration_ns());
      }
    }
  }
  out->Layer("trace.request_wait_share", "1", wait.value(),
             RatioJson(wait, "self_ns", "request_ns"));
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names BENCHMARK.json lists; every run prints all of its set.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"bytes_per_kv", "B"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gpusim.bucket_reads_per_op", "1/op"},
    {"gpusim.atomics_per_op", "1/op"},
    {"gpusim.cas_fail_ratio", "1"},
    {"gpusim.lock_conflicts_per_insert", "1/op"},
    {"dycuckoo.insert_ns_per_key", "ns"},
    {"dycuckoo.erase_ns_per_key", "ns"},
    {"dycuckoo.find_ns_per_key", "ns"},
    {"dycuckoo.resize_call_ms_p50", "ms"},
    {"dycuckoo.plain_call_ms_p50", "ms"},
    {"dycuckoo.rehashed_kvs_per_insert", "1/op"},
    {"dycuckoo.upsizes", "count"},
    {"dycuckoo.downsizes", "count"},
    {"dycuckoo.evictions_per_insert", "1/op"},
    {"dycuckoo.parked_victims_per_insert", "1/op"},
    {"dycuckoo.handoff_full_fallbacks", "count"},
    {"dycuckoo.filled_factor_mean", "1"},
    {"dycuckoo.find_hit_ratio", "1"},
    {"service.submit_us_p50", "us"},
    {"service.take_us_p50", "us"},
    {"service.steps_per_request", "1"},
    {"service.step_us_p50", "us"},
    {"service.step_us_p99", "us"},
    {"service.ops_per_launch", "1"},
    {"service.rejections", "count"},
    {"service.retries", "count"},
    {"service.coalesced_fallbacks", "count"},
    {"durability.commits_per_step", "1"},
    {"durability.wal_bytes_per_write", "B"},
    {"durability.checkpoints", "count"},
    {"durability.checkpoint_step_us_p50", "us"},
    {"durability.recover_ms", "ms"},
    {"service.reshard_chunk_step_ms_p50", "ms"},
    {"service.reshard_keys_copied_per_s", "1/s"},
    {"service.reshard_deferrals", "count"},
    {"service.reshard_blocked_writes", "count"},
    {"service.reshard_s", "s"},
    {"trace.overhead_ops_per_s_pct", "%"},
    {"trace.overhead_latency_p50_pct", "%"},
    {"trace.spans", "count"},
    {"trace.self_share.bench", "1"},
    {"trace.request_wait_share", "1"},
    {"trace.self_share.dycuckoo", "1"},
    {"trace.self_share.service", "1"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<churn|lookup|serve|reshard> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-rev <rev>] [--src-digest <hex>] "
               "[--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

std::string Hostname() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

/// Orders the workload's metrics as the spec lists them; a metric the
/// workload does not exercise is reported as 0 and marked so.
std::vector<Metric> Canonical(std::vector<Metric> got,
                              const MetricSpec* spec, size_t n,
                              RunResult* out) {
  std::vector<Metric> ordered;
  for (size_t i = 0; i < n; ++i) {
    auto it = std::find_if(got.begin(), got.end(), [&](const Metric& m) {
      return m.name == spec[i].name;
    });
    if (it == got.end()) {
      Metric m{spec[i].name, spec[i].unit, 0.0, {}};
      m.detail.Bool("exercised", false);
      ordered.push_back(std::move(m));
      continue;
    }
    if (it->unit != spec[i].unit) {
      out->CheckFailed("metric " + it->name + " printed in " + it->unit +
                       ", spec says " + spec[i].unit);
    }
    ordered.push_back(std::move(*it));
    got.erase(it);
  }
  for (const Metric& m : got) {
    out->CheckFailed("metric " + m.name + " is not in the spec");
  }
  return ordered;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string git_rev = "unknown", src_digest = "unknown";
  bool have_seed = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) Usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    const std::string a = argv[i];
    if (a == "--workload") {
      opt.workload = value("--workload");
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value("--seconds").c_str());
    } else if (a == "--trace") {
      opt.trace = value("--trace") == "1";
    } else if (a == "--git-rev") {
      git_rev = value("--git-rev");
    } else if (a == "--src-digest") {
      src_digest = value("--src-digest");
    } else if (a == "--trace-dir") {
      opt.trace_dir = value("--trace-dir");
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");

  void (*run)(const Options&, const Env&, RunResult*) = nullptr;
  if (opt.workload == "churn") run = RunChurn;
  if (opt.workload == "lookup") run = RunLookup;
  if (opt.workload == "serve") run = RunServe;
  if (opt.workload == "reshard") run = RunReshard;
  if (run == nullptr) Usage(("unknown workload " + opt.workload).c_str());

  // One driver thread plus the grid's workers, within nproc.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::clamp(nproc - 1, 1u, 3u);
  RunResult result;
  SpanRecorder rec;
  {
    dycuckoo::gpusim::Grid grid(workers);
    dycuckoo::gpusim::DeviceArena arena(0);
    Env env{workers, &grid, &arena, &rec};
    run(opt, env, &result);
  }

  std::string trace_file;
  if (opt.trace && !opt.trace_dir.empty()) {
    trace_file = opt.trace_dir + "/" + opt.workload + ".spans.csv";
    if (!rec.WriteCsv(trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
      trace_file.clear();
    }
  }

  const bool traced = opt.trace;
  std::vector<Metric> metrics =
      traced ? Canonical(std::move(result.per_layer), kPerLayer,
                         std::size(kPerLayer), &result)
             : Canonical(std::move(result.end_to_end), kEndToEnd,
                         std::size(kEndToEnd), &result);

  // Report line: provenance and every metric's distribution.
  JsonObject prov;
  prov.Str("host", Hostname())
      .Int("nproc", nproc)
      .Int("grid_workers", workers)
      .Int("driver_threads", 1)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("git_rev", git_rev)
      .Str("src_digest", src_digest)
      .Int("seed", opt.seed)
      .Num("seconds", opt.seconds)
      .Str("workload", opt.workload)
      .Bool("trace", traced);
  if (!trace_file.empty()) prov.Str("trace_file", trace_file);
  JsonObject detail;
  for (const Metric& m : metrics) {
    JsonObject d = m.detail;
    d.Num("value", m.value).Str("unit", m.unit);
    detail.Obj(m.name, d);
  }
  for (const Metric& m : result.report_only) {
    JsonObject d = m.detail;
    d.Num("value", m.value).Str("unit", m.unit).Bool("bounded", false);
    detail.Obj(m.name, d);
  }
  std::string notes = "[";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    notes += (i ? ", " : "") + JsonString(result.notes[i]);
  }
  notes += "]";
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  JsonObject report;
  report.Obj("provenance", prov)
      .Obj("metrics", detail)
      .Num("error_rate", error_rate)
      .Obj("workload", result.workload_info)
      .Raw("failures", notes);
  std::printf("%s\n", JsonObject().Obj("report", report).str().c_str());

  // Result line, last.
  JsonObject values;
  for (const Metric& m : metrics) {
    JsonObject v;
    v.Num("value", m.value).Str("unit", m.unit);
    values.Obj(m.name, v);
  }
  JsonObject last;
  last.Bool("correct", result.correct)
      .Int("attempted", std::max<uint64_t>(result.attempted, 1))
      .Int("failed", result.failed)
      .Obj("metrics", values);
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
