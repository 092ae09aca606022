#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

/// Measurement pieces of the end-to-end benchmark that do not depend on the
/// engine: percentiles, open-loop latency accounting and the span log. They
/// are header-only so harness_test.cc checks exactly what the benchmark runs.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// A tail percentile is reported only when at least this many samples lie
/// beyond its rank.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the p-th percentile (0 < p <= 100) of n samples.
inline std::size_t NearestRankIndex(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the nearest rank of the p-th percentile.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRankIndex(n, p);
}

/// True when the p-th percentile of n samples has enough samples beyond it.
inline bool TailResolved(std::size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile; +inf samples (failed requests) sort last.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRankIndex(v.size(), p) - 1];
}

/// Conventional median (mean of the two middle samples for even n).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Tail latency that one burst of host contention cannot swing: the samples
/// (in arrival order) are cut into consecutive windows of `window` samples,
/// the last window taking the remainder, and the median of the windows'
/// p-th percentiles is returned. Choose `window` so each window still leaves
/// ten samples beyond its percentile; with fewer than two windows this is
/// the plain percentile.
inline double WindowedPercentile(const std::vector<double>& v, double p,
                                 std::size_t window) {
  const std::size_t windows = window == 0 ? 1 : v.size() / window;
  if (windows < 2) return Percentile(v, p);
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows
                          ? v.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    tails.push_back(Percentile(std::vector<double>(first, last), p));
  }
  return Median(tails);
}

/// One open-loop request as the load generator saw it. Times are seconds on
/// the benchmark's steady clock.
struct Arrival {
  double due_s = 0.0;   // when the schedule said to send it
  double sent_s = 0.0;  // when the generator actually sent it
  double done_s = 0.0;  // when its response completed
  bool ok = false;      // false for failed or refused requests
};

/// Latency counted from the due time, so a stalled generator or queue shows
/// in every later request; a failed or refused request misses every limit.
inline double LatencyFromDue(const Arrival& a) {
  return a.ok ? a.done_s - a.due_s : kInf;
}

/// How late the generator sent a request.
inline double SendLateness(const Arrival& a) { return a.sent_s - a.due_s; }

/// Requests still outstanding (sent, not completed) at each arrival; refused
/// requests never count as outstanding.
inline std::vector<int64_t> BacklogAtArrivals(const std::vector<Arrival>& a) {
  std::vector<double> done;
  done.reserve(a.size());
  std::vector<int64_t> backlog(a.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    int64_t outstanding = 0;
    for (double d : done) outstanding += d > a[i].sent_s ? 1 : 0;
    backlog[i] = outstanding;
    if (a[i].ok) done.push_back(a[i].done_s);
  }
  return backlog;
}

/// The three phases of one executed serving request. `body_start_s` and
/// `body_end_s` bracket the plan body; by construction the phases add up
/// to LatencyFromDue.
struct ServePhases {
  double queue_s = 0.0;  // due time -> plan-body start
  double exec_s = 0.0;   // the plan body
  double post_s = 0.0;   // plan-body end -> response complete
};

inline ServePhases SplitLatency(const Arrival& a, double body_start_s,
                                double body_end_s) {
  return {body_start_s - a.due_s, body_end_s - body_start_s,
          a.done_s - body_end_s};
}

/// One timed interval around a call into a layer's public function.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  int64_t unit = -1;    // job or request id the span belongs to
};

/// In-memory span log. Spans nest by the open-span stack of the single
/// thread that records them (the engine's driver thread); spans measured on
/// other threads are added afterwards with Add.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_unit(int64_t unit) { unit_ = unit; }

  int64_t Open(const char* name) {
    Span s;
    s.name = name;
    s.start_s = Now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.unit = unit_;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return stack_.back();
  }

  void Close(int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_s = Now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  int64_t Add(std::string name, double start_s, double end_s, int64_t parent,
              int64_t unit) {
    spans_.push_back(Span{std::move(name), start_s, end_s, parent, unit});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of the spans called `name` in `unit`.
  double Sum(const std::string& name, int64_t unit) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.unit == unit && s.name == name) total += s.end_s - s.start_s;
    }
    return total;
  }

  /// The span's duration minus the part of its interval that its direct
  /// children cover (overlapping children are counted once).
  double SelfTime(int64_t id) const {
    const Span& parent = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> cover;
    for (const Span& s : spans_) {
      if (s.parent != id) continue;
      const double lo = std::max(s.start_s, parent.start_s);
      const double hi = std::min(s.end_s, parent.end_s);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = parent.start_s;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    return std::max(0.0, (parent.end_s - parent.start_s) - covered);
  }

  /// Summed self time of the spans called `name` in `unit`.
  double SelfSum(const std::string& name, int64_t unit) const {
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].unit == unit && spans_[i].name == name) {
        total += SelfTime(static_cast<int64_t>(i));
      }
    }
    return total;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  int64_t unit_ = -1;
};

/// Runs `f` inside a span called `name`; with no log (tracing off) it only
/// runs `f`.
template <typename F>
decltype(auto) Traced(SpanLog* log, const char* name, F&& f) {
  if (log == nullptr) return f();
  struct Closer {
    SpanLog* log;
    int64_t id;
    ~Closer() { log->Close(id); }
  } closer{log, log->Open(name)};
  return f();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
