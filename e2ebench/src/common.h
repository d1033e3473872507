// Shared pieces of the end-to-end benchmark: the clock, the in-memory span
// recorder, order statistics, and the metric sink the result line is
// printed from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// One recorded span.  `req` groups the spans of one serving request
/// (-1 = not request-scoped).
struct Span {
  std::string name;
  std::string layer;  ///< module name: serve, runtime, nn, tensor, ...
  std::int64_t req = -1;
  Clock::time_point start;
  Clock::time_point end;
  std::string note;  ///< free-form attributes, already JSON-escaped
};

/// In-memory span recorder.  Disabled recorders cost one branch per call;
/// spans are written out once, when the run ends.  Thread-safe: the load
/// generator and collector record concurrently with the main thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span (dropped when disabled).
  void add(Span s) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }

  /// Write every span as Chrome trace-event JSON (loadable in Perfetto).
  bool write(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Time `fn` as one span named `name` in module `layer`; returns ms.  The
/// span is recorded only when the tracer is on, but the time is always
/// measured, so untraced runs can use the same helper.
template <typename Fn>
double timed(Tracer& tr, const std::string& layer, const std::string& name,
             Fn&& fn) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = Clock::now();
  fn();
  s.end = Clock::now();
  const double ms = ms_between(s.start, s.end);
  tr.add(std::move(s));
  return ms;
}

/// Median over `reps` timed calls of `fn` (one span each).
template <typename Fn>
double median_ms(Tracer& tr, const std::string& layer, const std::string& name,
                 int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) t.push_back(timed(tr, layer, name, fn));
  return median(std::move(t));
}

/// Ordered metric sink: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = order_.size();
      order_.push_back({name, {value, unit}});
    } else {
      order_[index_[name]].second = {value, unit};
    }
  }
  [[nodiscard]] const std::vector<
      std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return order_;
  }

 private:
  std::map<std::string, std::size_t> index_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> order_;
};

/// Full-precision JSON number.  JSON has no inf or NaN; they print as 0.
[[nodiscard]] inline std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
[[nodiscard]] std::string json_str(const std::string& s);

}  // namespace e2e
