// In-memory span recorder for the traced run.
//
// Every call the benchmark makes into a layer is wrapped in a span: name,
// layer, start, end, parent span and request id.  Spans stay in memory
// while the run measures and are written out once it ends.  A span's self
// time is its duration minus the part of it that its children cover; a
// layer's self time is the sum over its spans.
//
// Recording is off unless enabled, and an off recorder hands out id 0,
// which every other call ignores, so the untraced path costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  const char* layer = "";
  const char* name = "";
  const char* tag = "";  // work attributed by a counter that moved inside
  uint32_t parent = 0;   // span id (index + 1) of the parent, 0 for a root
  uint64_t request = 0;  // request id shared by one request's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id, or 0 while recording is off.
  uint32_t Open(const char* layer, const char* name, uint32_t parent = 0,
                uint64_t request = 0) {
    if (!enabled_) return 0;
    Span s;
    s.layer = layer;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start_ns = NowNs();
    s.end_ns = s.start_ns;
    spans_.push_back(s);
    return static_cast<uint32_t>(spans_.size());
  }

  void Close(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }

  void Tag(uint32_t id, const char* tag) {
    if (id != 0) spans_[id - 1].tag = tag;
  }

  /// Records a span whose bounds are already known (self-tests).
  uint32_t Add(const Span& s) {
    spans_.push_back(s);
    return static_cast<uint32_t>(spans_.size());
  }

  const Span& span(uint32_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, in span order: its duration minus the
  /// union of its children's intervals clipped to it.
  std::vector<int64_t> SelfTimesNs() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != 0) {
        kids[s.parent - 1].push_back({s.start_ns, s.end_ns});
      }
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& p = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0;
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, p.start_ns);
        hi = std::min(hi, p.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
      self[i] = p.duration_ns() - covered;
    }
    return self;
  }

  /// Self time summed per layer.
  std::map<std::string, int64_t> SelfTimeByLayerNs() const {
    std::map<std::string, int64_t> out;
    const std::vector<int64_t> self = SelfTimesNs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += self[i];
    }
    return out;
  }

  /// Writes every span as CSV; returns false if the file cannot be written.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,request,layer,name,tag,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%u,%llu,%s,%s,%s,%lld,%lld\n", i + 1, s.parent,
                   static_cast<unsigned long long>(s.request), s.layer,
                   s.name, s.tag, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* layer, const char* name,
             uint32_t parent = 0, uint64_t request = 0)
      : rec_(rec), id_(rec->Open(layer, name, parent, request)) {}
  ~ScopedSpan() { rec_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
