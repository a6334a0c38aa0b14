// Small helpers shared by the benchmark driver and its self-tests: a
// monotonic clock, nearest-rank percentiles with the sample-count rule,
// ratios that keep their base, and a minimal JSON object writer.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- Percentiles ------------------------------------------------------------

/// Zero-based index of the nearest-rank `pct`-th percentile of `n` sorted
/// samples: the smallest sample with at least pct% of the samples at or
/// below it.  Integer arithmetic, so 99% of 1000 is exactly rank 990.
inline size_t PercentileIndex(size_t n, unsigned pct) {
  if (n == 0) return 0;
  size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  if (rank < 1) rank = 1;
  return std::min(rank, n) - 1;
}

/// Samples strictly above the `pct`-th percentile's rank.
inline size_t SamplesBeyond(size_t n, unsigned pct) {
  return n == 0 ? 0 : n - (PercentileIndex(n, pct) + 1);
}

/// A percentile is reportable only with at least `min_beyond` samples
/// beyond it; otherwise it is the maximum in disguise.
inline bool PercentileSupported(size_t n, unsigned pct,
                                size_t min_beyond = 10) {
  return n > 0 && SamplesBeyond(n, pct) >= min_beyond;
}

/// Distribution of one metric's samples.
struct Summary {
  size_t n = 0;
  double median = 0, p10 = 0, p90 = 0, p99 = 0, mean = 0;
  bool p99_supported = false;
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto at = [&](unsigned pct) { return v[PercentileIndex(v.size(), pct)]; };
  s.median = at(50);
  s.p10 = at(10);
  s.p90 = at(90);
  s.p99 = at(99);
  double sum = 0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  s.p99_supported = PercentileSupported(v.size(), 99);
  return s;
}

/// Set-up is repeated so setup_s can be a median: at least three times
/// and, while the repeats add up to less than kMinSetupSeconds, again (at
/// most kMaxSetupRepeats times), so that a set-up of tens of milliseconds
/// is not the median of three jittery samples.
inline constexpr size_t kMinSetupRepeats = 3;
inline constexpr size_t kMaxSetupRepeats = 15;
inline constexpr double kMinSetupSeconds = 1.0;

/// Whether to set up once more, given the set-up times so far.
inline bool MoreSetups(const std::vector<double>& setup_s) {
  if (setup_s.size() < kMinSetupRepeats) return true;
  if (setup_s.size() >= kMaxSetupRepeats) return false;
  double total = 0;
  for (double s : setup_s) total += s;
  return total < kMinSetupSeconds;
}

/// p50 and p99 of consecutive windows of samples.  Every window holds at
/// least `min_window` samples (the remainder joins the last window), so
/// with min_window >= 1000 each window's p99 has ten samples beyond it.
/// Fewer than `min_window` samples in all gives no window.
struct LatencyWindows {
  std::vector<double> p50, p99;
  size_t smallest = 0;  // samples in the smallest window
};

inline LatencyWindows SummarizeWindows(const std::vector<double>& samples,
                                       size_t min_window) {
  LatencyWindows w;
  const size_t count = min_window > 0 ? samples.size() / min_window : 0;
  for (size_t i = 0; i < count; ++i) {
    const auto begin = samples.begin() + i * min_window;
    const auto end = i + 1 == count ? samples.end() : begin + min_window;
    const Summary s = Summarize(std::vector<double>(begin, end));
    w.p50.push_back(s.median);
    w.p99.push_back(s.p99);
    if (w.smallest == 0 || s.n < w.smallest) w.smallest = s.n;
  }
  return w;
}

/// A ratio that remembers what it was computed from, so every printed
/// ratio can be read together with its base.
struct Ratio {
  double num = 0;
  double base = 0;
  double value() const { return base > 0 ? num / base : 0.0; }
};

// --- JSON -------------------------------------------------------------------

/// Shortest round-trip text of a finite double; JSON has no NaN/inf, so
/// those become null (every metric perfbench prints is finite).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Builds one JSON object, keys in insertion order.
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += JsonString(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  JsonObject& Num(std::string_view key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(std::string_view key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(std::string_view key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(std::string_view key, std::string_view v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Obj(std::string_view key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline JsonObject SummaryJson(const Summary& s) {
  JsonObject o;
  o.Num("median", s.median).Num("p10", s.p10).Num("p90", s.p90);
  o.Int("n", s.n);
  return o;
}

inline JsonObject RatioJson(const Ratio& r, std::string_view num_name,
                            std::string_view base_name) {
  JsonObject o;
  o.Num(num_name, r.num).Num(base_name, r.base);
  return o;
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
