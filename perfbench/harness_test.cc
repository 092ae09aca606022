// Self-tests of the benchmark's measurement code (harness.h). Plain checks
// that stay on in every build type; exits non-zero if any check fails.
// perfbench/run.py runs this before every workload.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void NearestRankPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  EXPECT(Percentile(v, 50) == 50);
  EXPECT(Percentile(v, 99) == 99);
  EXPECT(Percentile(v, 100) == 100);
  EXPECT(Percentile({7}, 99) == 7);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  // The 99th percentile of n samples has n - ceil(0.99 n) samples beyond:
  // 1000 is the fewest samples that leave ten.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(TailResolved(1000, 99));
  EXPECT(!TailResolved(999, 99));
  EXPECT(SamplesBeyond(100, 99) == 1);
  EXPECT(TailResolved(100, 90));
  EXPECT(!TailResolved(13, 99));
  EXPECT(SamplesBeyond(0, 99) == 0);

  // Windowed p99: a burst confined to one of three 1,000-sample windows
  // moves that window's p99 only, and the median of the three ignores it.
  std::vector<double> lat(3000, 1.0);
  for (int i = 0; i < 20; ++i) lat[static_cast<std::size_t>(i * 50)] = 2.0;
  for (int i = 2000; i < 2100; ++i) lat[static_cast<std::size_t>(i)] = 50.0;
  EXPECT(Percentile(lat, 99) == 50.0);
  EXPECT(WindowedPercentile(lat, 99, 1000) == 2.0);
  // Fewer than two windows: the plain p99 (here of the first 1,999).
  const std::vector<double> head(lat.begin(), lat.begin() + 1999);
  EXPECT(WindowedPercentile(head, 99, 1000) == Percentile(head, 99));
  EXPECT(WindowedPercentile({3, 1, 2}, 99, 1000) == 3);
}

void OpenLoopTiming() {
  // Due at 1.0, sent late at 1.2, done at 1.5: latency counts from due.
  const Arrival late{1.0, 1.2, 1.5, true};
  EXPECT(std::abs(LatencyFromDue(late) - 0.5) < 1e-12);
  EXPECT(std::abs(SendLateness(late) - 0.2) < 1e-12);
  // Failed or refused requests count as +inf, so they miss any limit and
  // sort beyond every completed request.
  const Arrival refused{2.0, 2.0, 2.0, false};
  EXPECT(std::isinf(LatencyFromDue(refused)));
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 1000; ++i) {
    arrivals.push_back({0.01 * i, 0.01 * i, 0.01 * i + 0.002, i % 100 != 7});
  }
  std::vector<double> lat;
  for (const Arrival& a : arrivals) lat.push_back(LatencyFromDue(a));
  EXPECT(std::abs(Median(lat) - 0.002) < 1e-12);
  // 10 failures in 1000 sit beyond the p99 rank; an 11th reaches it.
  EXPECT(std::abs(Percentile(lat, 99) - 0.002) < 1e-12);
  arrivals[500].ok = false;
  lat[500] = LatencyFromDue(arrivals[500]);
  EXPECT(std::isinf(Percentile(lat, 99)));

  // Backlog: request 1 is sent while request 0 is still running.
  const std::vector<Arrival> overlap = {
      {0.0, 0.0, 1.0, true}, {0.5, 0.5, 0.6, true}, {2.0, 2.0, 2.15, true},
      {2.05, 2.05, 2.2, false}, {2.1, 2.1, 2.3, true}};
  const std::vector<int64_t> backlog = BacklogAtArrivals(overlap);
  EXPECT(backlog[0] == 0);
  EXPECT(backlog[1] == 1);
  EXPECT(backlog[2] == 0);
  EXPECT(backlog[3] == 1);
  EXPECT(backlog[4] == 1);  // the refused request is never outstanding
}

void ServePhasesSumToLatency() {
  const Arrival a{10.0, 10.001, 10.050, true};
  const ServePhases p = SplitLatency(a, 10.020, 10.045);
  EXPECT(std::abs(p.queue_s - 0.020) < 1e-12);
  EXPECT(std::abs(p.exec_s - 0.025) < 1e-12);
  EXPECT(std::abs(p.post_s - 0.005) < 1e-12);
  EXPECT(std::abs(p.queue_s + p.exec_s + p.post_s - LatencyFromDue(a)) <
         1e-12);
}

void LoopSelfTimeIsNeverNegative() {
  SpanLog log(Clock::now());
  // A loop whose body spans overlap and spill past its end.
  const int64_t loop = log.Add("core.loop", 0.0, 1.0, -1, 0);
  log.Add("core.map_with_closure", 0.1, 0.5, loop, 0);
  log.Add("core.reduce_by_key", 0.3, 0.7, loop, 0);
  log.Add("core.fold", 0.9, 1.4, loop, 0);
  log.Add("core.fold", 2.0, 3.0, -1, 0);  // not a child
  EXPECT(std::abs(log.SelfTime(loop) - 0.3) < 1e-12);
  EXPECT(std::abs(log.Sum("core.fold", 0) - 1.5) < 1e-12);
  const int64_t covered = log.Add("core.loop", 5.0, 6.0, -1, 1);
  log.Add("core.fold", 4.0, 7.0, covered, 1);
  EXPECT(log.SelfTime(covered) == 0.0);

  // Recorded spans nest by the open-span stack.
  SpanLog live(Clock::now());
  live.set_unit(3);
  const double self = Traced(&live, "core.loop", [&] {
    Traced(&live, "core.fold", [] { return 0; });
    return 1.0;
  });
  EXPECT(self == 1.0);
  EXPECT(live.spans().size() == 2);
  EXPECT(live.spans()[1].parent == 0);
  EXPECT(live.spans()[1].unit == 3);
  EXPECT(live.SelfSum("core.loop", 3) >= 0.0);
  EXPECT(live.SelfSum("core.loop", 3) <=
         live.spans()[0].end_s - live.spans()[0].start_s);
  // Without a log, Traced only runs the call.
  EXPECT(Traced(nullptr, "x", [] { return 42; }) == 42);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::NearestRankPercentiles();
  perfbench::OpenLoopTiming();
  perfbench::ServePhasesSumToLatency();
  perfbench::LoopSelfTimeIsNeverNegative();
  if (perfbench::failures != 0) return 1;
  std::puts("harness_test: all checks passed");
  return 0;
}
