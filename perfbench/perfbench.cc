// End-to-end benchmark of the paper's nested-parallel programs on the real
// clock. One process runs one workload (see README.md):
//
//   perfbench --workload <bounce-rate|kmeans|bounce-rate-budget|serve-mix>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--commit <sha>] [--source-sha256 <hex>]
//
// It prints one "metric" line per metric, one provenance line, and, as the
// last line, the result object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, measured
// with no span recording; with --trace 1 they are the per-layer ones, taken
// from spans recorded around every call the benchmark makes into a layer's
// public function. The traced run keeps its spans in memory and writes them
// at exit to --trace-out (Chrome trace format).
// The exit code is non-zero when any output fails its correctness check.

#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/matryoshka.h"
#include "datagen/datagen.h"
#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/ops.h"
#include "lang/expr.h"
#include "obs/breakdown.h"
#include "obs/trace_recorder.h"
#include "harness.h"
#include "serve/plan.h"
#include "serve/registry.h"
#include "serve/serving_driver.h"
#include "workloads/bounce_rate.h"
#include "workloads/kmeans.h"

namespace perfbench {
namespace {

namespace m = matryoshka;
using m::datagen::Point;
using m::datagen::Visit;
using m::engine::Cluster;
using m::engine::ClusterConfig;
using m::engine::Metrics;

// --- workload sizes ---------------------------------------------------------

constexpr int64_t kBounceVisits = int64_t{1} << 22;
constexpr int64_t kBounceDays = 256;
constexpr double kBounceFraction = 0.5;
// The budgeted variant runs a smaller log, with the budget far below its
// working set so every scatter and keyed build spills. It also cuts wide
// operators into 32 partitions instead of the paper cluster's 1200: every
// producer of a budgeted scatter creates and unlinks a spill file, and at
// 1200 (or 192) producers that file-system work dominated a job and followed
// the shared disk's load, so job_s spread 25-60% between runs.
constexpr int64_t kBudgetVisits = int64_t{1} << 20;
constexpr std::size_t kBudgetBytes = std::size_t{4} << 20;
constexpr int kBudgetParallelism = 32;
constexpr int64_t kKMeansPoints = int64_t{1} << 20;
constexpr int64_t kKMeansRuns = 64;
constexpr int64_t kKMeansBlobs = 4;
// Fixed work per job: epsilon < 0 never converges early.
constexpr m::workloads::KMeansParams kKMeansParams{
    .k = 4, .max_iterations = 10, .epsilon = -1.0, .init_seed = 0};
// Set-ups per process; setup_s is their median. Serving set-up takes tens of
// milliseconds, so it is repeated more often.
constexpr int kSetupReps = 3;
constexpr int kServeSetupReps = 9;
// A batch run times at least this many jobs, however short --seconds is;
// each half of a traced run at least kMinTracedJobs.
constexpr int kMinJobs = 3;
constexpr int kMinTracedJobs = 2;

// serve-mix: two site logs, a what-if visit per request, a known share of
// repeated (plan, params) points, open-loop Poisson arrivals.
constexpr int64_t kSmallLogVisits = 1024;
constexpr int64_t kSmallLogDays = 8;
constexpr int64_t kLargeLogVisits = 4096;
constexpr int64_t kLargeLogDays = 32;
constexpr double kRepeatShare = 0.25;
// Share of requests on the large log. Plan-body times are bimodal (one mode
// per log); with a quarter large, the medians sit inside the small mode
// instead of flipping between modes from run to run.
constexpr double kLargeShare = 0.25;
constexpr int kWarmupRequests = 32;
// Requests per rate step: at least 1,000, so p99 has 10 samples beyond it,
// and more when --seconds leaves time for them.
constexpr int64_t kMinRequestsPerStep = 1000;
// Offered rates (requests/s). The nominal rate loads a 4-core host to about
// a quarter of its capacity (about 1,500 requests/s): nearer half, the
// neighbours' load on a shared host moved the nominal p99 by more than its
// bound between runs. serve_max_rps is the highest step whose p99 stays
// under the latency limit with no growing backlog.
constexpr double kNominalRps = 400.0;
constexpr std::array<double, 3> kRateSteps = {1.0, 1.5, 2.0};
constexpr double kLatencyLimitMs = 100.0;
// Nice value of the serving threads in measured steps (see MakeDriver).
constexpr int kServingNice = 10;

constexpr double kMiB = 1024.0 * 1024.0;

// --- process measurements ---------------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the peak covers
/// only what follows (the workload, not its correctness references).
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int HostThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit, int64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = ".bench_build/traces/spans.json";
  std::string commit = "unknown";
  std::string source_sha256 = "unknown";
};

/// Pool threads and serving workers of a workload: batch jobs run on a pool
/// of nproc; serving runs nproc workers, each request serially.
std::string ProvenanceJson(const Options& opt) {
  const bool serving = opt.workload == "serve-mix";
  std::ostringstream os;
  os << "{\"workload\": " << Quote(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << Num(opt.seconds)
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"nproc\": " << HostThreads()
     << ", \"pool_threads\": " << (serving ? 0 : HostThreads())
     << ", \"serving_workers\": " << (serving ? HostThreads() : 0)
     << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << Quote(std::string("gcc ") + __VERSION__)
     << ", \"git_commit\": " << Quote(opt.commit)
     << ", \"source_sha256\": " << Quote(opt.source_sha256) << "}";
  return os.str();
}

/// Writes spans as Chrome trace "complete" events (one lane per job or
/// request) so the run opens in Perfetto.
void WriteSpans(const Options& opt, const std::vector<const SpanLog*>& logs,
                const std::string& provenance) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(opt.trace_out).parent_path(), ec);
  std::ofstream out(opt.trace_out);
  out << "{\"provenance\": " << provenance << ", \"traceEvents\": [";
  bool first = true;
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "\n" : ",\n") << "{\"name\": " << Quote(s.name)
          << ", \"ph\": \"X\", \"pid\": " << l << ", \"tid\": " << s.unit
          << ", \"ts\": " << Num(s.start_s * 1e6)
          << ", \"dur\": " << Num((s.end_s - s.start_s) * 1e6)
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

// --- the paper's cluster ----------------------------------------------------

/// The paper's evaluation cluster (Sec. 9.1; the same constants as the
/// figure benches), executing for real on a pool of `pool_threads`.
ClusterConfig PaperCluster(int pool_threads) {
  ClusterConfig cfg;
  cfg.num_machines = 25;
  cfg.cores_per_machine = 16;
  cfg.memory_per_machine_bytes = 22.0 * (1ULL << 30);
  cfg.network_bytes_per_s = 125e6;
  cfg.job_launch_overhead_s = 0.1;
  cfg.task_overhead_s = 0.004;
  cfg.per_element_cost_s = 100e-9;
  cfg.execute_parallel = true;
  cfg.pool_threads = pool_threads;
  return cfg;
}

/// The small per-request cluster every serving request gets.
ClusterConfig ServedCluster() {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  return cfg;
}

// --- bounce rate (Listing 1) as a lifted program -----------------------------

using DayRates = std::vector<std::pair<int64_t, double>>;

DayRates BounceRateJob(Cluster* cluster, const std::vector<Visit>& visits,
                       SpanLog* log) {
  using Ip = int64_t;
  using Day = int64_t;
  namespace core = m::core;
  auto bag = Traced(log, "engine.parallelize",
                    [&] { return m::engine::Parallelize(cluster, visits); });
  auto nested = Traced(log, "core.nest",
                       [&] { return core::GroupByKeyIntoNestedBag(bag); });
  auto rates = Traced(log, "core.lifted_udf", [&] {
    return core::MapWithLiftedUdf(
        nested, [&](const core::LiftingContext&, const core::InnerScalar<Day>&,
                    const core::InnerBag<Ip>& group) {
          // LiftedMap and LiftedFilter return pending bags: their work lands
          // in the span of the call that forces them.
          auto ones = Traced(log, "core.lifted_map", [&] {
            return core::LiftedMap(
                group, [](Ip ip) { return std::pair<Ip, int64_t>(ip, 1); });
          });
          auto counts = Traced(log, "core.reduce_by_key", [&] {
            return core::LiftedReduceByKey(
                ones, [](int64_t a, int64_t b) { return a + b; });
          });
          auto singles = Traced(log, "core.lifted_filter", [&] {
            return core::LiftedFilter(
                counts,
                [](const std::pair<Ip, int64_t>& p) { return p.second == 1; });
          });
          auto bounces = Traced(log, "core.count",
                                [&] { return core::LiftedCount(singles); });
          auto visitors = Traced(log, "core.distinct",
                                 [&] { return core::LiftedDistinct(group); });
          auto total = Traced(log, "core.count",
                              [&] { return core::LiftedCount(visitors); });
          return Traced(log, "core.scalar_op", [&] {
            return core::BinaryScalarOp(
                bounces, total, [](int64_t b, int64_t t) {
                  return t == 0 ? 0.0
                                : static_cast<double>(b) /
                                      static_cast<double>(t);
                });
          });
        });
  });
  auto zipped = Traced(log, "core.zip_keys", [&] {
    return core::ZipWithKeys(nested.keys(), rates);
  });
  return Traced(log, "engine.collect",
                [&] { return m::engine::Collect(zipped); });
}

uint64_t Digest(const DayRates& rates) {
  uint64_t h = 0x626f756e6365ULL;
  for (const auto& [day, rate] : rates) {
    uint64_t bits = 0;
    std::memcpy(&bits, &rate, sizeof(bits));
    h = m::Mix64(h ^ static_cast<uint64_t>(day));
    h = m::Mix64(h ^ bits);
  }
  return h;
}

std::string CheckBounce(DayRates got, DayRates want) {
  std::sort(got.begin(), got.end());
  if (got.size() != want.size()) {
    return "bounce rate: " + std::to_string(got.size()) + " days, reference " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first ||
        !(std::abs(got[i].second - want[i].second) <= 1e-12)) {
      return "bounce rate of day " + std::to_string(want[i].first) + ": " +
             Num(got[i].second) + ", reference " + Num(want[i].second);
    }
  }
  return "";
}

// --- grouped k-means (Fig. 1/3) as a lifted program --------------------------

using m::workloads::kMaxK;
using m::workloads::KMeansModel;

struct CentroidAgg {
  Point sum{};
  int64_t count = 0;
  double sq_dist_sum = 0.0;

  void Add(const CentroidAgg& o) {
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += o.sum[i];
    count += o.count;
    sq_dist_sum += o.sq_dist_sum;
  }
};

struct PartialAggs {
  std::array<CentroidAgg, kMaxK> aggs{};
};

struct LoopState {
  std::array<Point, kMaxK> means{};
  int64_t k = 0;
  int64_t iteration = 0;
  double shift = std::numeric_limits<double>::infinity();
  double inertia = 0.0;
};

double SquaredDistance(const Point& a, const Point& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] - b[i]) * (a[i] - b[i]);
  return d;
}

std::pair<int64_t, CentroidAgg> AssignPoint(const Point& p,
                                            const LoopState& st) {
  int64_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i < st.k; ++i) {
    const double d = SquaredDistance(p, st.means[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return {best, CentroidAgg{p, 1, best_d}};
}

LoopState Advance(const LoopState& st, const PartialAggs& partial) {
  LoopState next = st;
  next.iteration = st.iteration + 1;
  next.shift = 0.0;
  next.inertia = 0.0;
  for (int64_t i = 0; i < st.k; ++i) {
    const CentroidAgg& a = partial.aggs[static_cast<std::size_t>(i)];
    next.inertia += a.sq_dist_sum;
    if (a.count == 0) continue;
    Point updated;
    for (std::size_t d = 0; d < updated.size(); ++d) {
      updated[d] = a.sum[d] / static_cast<double>(a.count);
    }
    next.shift += std::sqrt(SquaredDistance(updated, st.means[i]));
    next.means[i] = updated;
  }
  return next;
}

using Models = std::vector<std::pair<int64_t, KMeansModel>>;
using GroupedPoints = std::vector<std::pair<int64_t, Point>>;

Models KMeansJob(Cluster* cluster, const GroupedPoints& points, SpanLog* log) {
  namespace core = m::core;
  const m::workloads::KMeansParams params = kKMeansParams;
  auto bag = Traced(log, "engine.parallelize",
                    [&] { return m::engine::Parallelize(cluster, points); });
  auto nested = Traced(log, "core.nest",
                       [&] { return core::GroupByKeyIntoNestedBag(bag); });
  auto group_points = Traced(log, "core.partition_by_tag", [&] {
    return core::MaybePartitionByTag(nested.values());
  });
  auto init = Traced(log, "core.scalar_op", [&] {
    return core::UnaryScalarOp(nested.keys(), [params](int64_t run) {
      const m::datagen::Means means = m::datagen::GenerateInitialMeans(
          params.k, params.init_seed + static_cast<uint64_t>(run));
      LoopState s;
      s.k = params.k;
      for (std::size_t i = 0; i < means.size(); ++i) s.means[i] = means[i];
      return s;
    });
  });
  const auto weight = static_cast<double>(params.k);
  auto final_state = Traced(log, "core.loop", [&] {
    return core::LiftedWhileScalar(
        init,
        [&](const core::LiftingContext& ctx,
            const core::InnerScalar<LoopState>& state, int64_t) {
          auto assigned = Traced(log, "core.map_with_closure", [&] {
            return core::MapWithClosure(group_points, state, &AssignPoint,
                                        weight);
          });
          auto per_centroid = Traced(log, "core.reduce_by_key", [&] {
            return core::LiftedReduceByKey(
                assigned,
                [](CentroidAgg a, const CentroidAgg& b) {
                  a.Add(b);
                  return a;
                },
                /*weight=*/1.0, /*result_scale=*/ctx.tags().scale());
          });
          auto partials = Traced(log, "core.fold", [&] {
            return core::LiftedFold(
                per_centroid, PartialAggs{},
                [](const std::pair<int64_t, CentroidAgg>& p) {
                  PartialAggs pa;
                  pa.aggs[static_cast<std::size_t>(p.first)] = p.second;
                  return pa;
                },
                [](PartialAggs a, const PartialAggs& b) {
                  for (std::size_t i = 0; i < a.aggs.size(); ++i) {
                    a.aggs[i].Add(b.aggs[i]);
                  }
                  return a;
                });
          });
          auto next = Traced(log, "core.scalar_op", [&] {
            return core::BinaryScalarOp(state, partials, &Advance);
          });
          auto cont = Traced(log, "core.scalar_op", [&] {
            return core::UnaryScalarOp(next, [params](const LoopState& st) {
              return st.iteration < params.max_iterations &&
                     st.shift > params.epsilon;
            });
          });
          return std::make_pair(next, cont);
        },
        params.max_iterations + 1, "kmeans");
  });
  auto models = Traced(log, "core.scalar_op", [&] {
    return core::UnaryScalarOp(final_state, [](const LoopState& st) {
      KMeansModel model;
      model.means.assign(st.means.begin(), st.means.begin() + st.k);
      model.inertia = st.inertia;
      model.iterations = st.iteration;
      return model;
    });
  });
  auto zipped = Traced(log, "core.zip_keys", [&] {
    return core::ZipWithKeys(nested.keys(), models);
  });
  return Traced(log, "engine.collect",
                [&] { return m::engine::Collect(zipped); });
}

uint64_t Digest(const Models& models) {
  uint64_t h = 0x6b6d65616e73ULL;
  auto fold = [&h](double x) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h = m::Mix64(h ^ bits);
  };
  for (const auto& [run, model] : models) {
    h = m::Mix64(h ^ static_cast<uint64_t>(run));
    h = m::Mix64(h ^ static_cast<uint64_t>(model.iterations));
    for (const Point& p : model.means) {
      for (double x : p) fold(x);
    }
    fold(model.inertia);
  }
  return h;
}

// Summation order differs from the sequential reference, so means and
// inertia agree to rounding, not bit for bit.
constexpr double kMeansTolerance = 1e-8;
constexpr double kInertiaRelTolerance = 1e-9;

std::string CheckKMeans(Models got, const Models& want) {
  std::sort(got.begin(), got.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (got.size() != want.size()) {
    return "kmeans: " + std::to_string(got.size()) + " runs, reference " +
           std::to_string(want.size());
  }
  for (std::size_t r = 0; r < got.size(); ++r) {
    const KMeansModel& g = got[r].second;
    const KMeansModel& w = want[r].second;
    const std::string run = "kmeans run " + std::to_string(want[r].first);
    if (got[r].first != want[r].first || g.iterations != w.iterations ||
        g.means.size() != w.means.size()) {
      return run + ": shape differs from the reference";
    }
    if (!(std::abs(g.inertia - w.inertia) <=
          kInertiaRelTolerance * (1.0 + std::abs(w.inertia)))) {
      return run + ": inertia " + Num(g.inertia) + ", reference " +
             Num(w.inertia);
    }
    for (std::size_t i = 0; i < g.means.size(); ++i) {
      for (std::size_t d = 0; d < g.means[i].size(); ++d) {
        if (!(std::abs(g.means[i][d] - w.means[i][d]) <= kMeansTolerance)) {
          return run + ": mean " + std::to_string(i) + " differs by " +
                 Num(g.means[i][d] - w.means[i][d]);
        }
      }
    }
  }
  return "";
}

// --- the batch driver -------------------------------------------------------

/// One batch workload: how to make its input, run one job, and check the
/// job's output against the sequential reference.
template <typename Input, typename Output>
struct BatchWorkload {
  std::function<Input(uint64_t seed)> generate;
  std::function<Output(const Input&)> reference;
  std::function<Output(Cluster*, const Input&, SpanLog*)> job;
  std::function<std::string(const Output&, const Output&)> check;
  std::size_t budget_bytes = 0;
};

ClusterConfig BatchCluster(std::size_t budget_bytes, int pool_threads) {
  ClusterConfig cfg = PaperCluster(pool_threads);
  cfg.real_memory_budget_bytes = budget_bytes;
  if (budget_bytes != 0) cfg.default_parallelism = kBudgetParallelism;
  return cfg;
}

/// What one job left behind.
struct JobSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Metrics metrics;
  uint64_t digest = 0;
  int64_t unit = -1;
  m::obs::Breakdown breakdown;
};

// Engine and spill counts that must repeat exactly (across jobs and pool
// sizes).
std::vector<std::pair<const char*, double>> ExactCounts(const Metrics& x) {
  return {{"sim_s", x.simulated_time_s},
          {"engine.jobs", static_cast<double>(x.jobs)},
          {"engine.stages", static_cast<double>(x.stages)},
          {"engine.tasks", static_cast<double>(x.tasks)},
          {"engine.shuffle_mb", x.shuffle_bytes / kMiB},
          {"engine.broadcast_mb", x.broadcast_bytes / kMiB},
          {"external.spilled_mb", x.real_spilled_bytes / kMiB},
          {"external.spill_runs", static_cast<double>(x.real_spill_runs)},
          {"external.spill_events", static_cast<double>(x.real_spill_events)},
          {"external.io_retries", static_cast<double>(x.real_io_retries)},
          {"external.inmemory_fallbacks",
           static_cast<double>(x.inmemory_fallbacks)}};
}

std::string CompareCounts(const Metrics& a, const Metrics& b,
                          const std::string& what) {
  const auto x = ExactCounts(a);
  const auto y = ExactCounts(b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].second != y[i].second) {
      return what + ": " + x[i].first + " " + Num(x[i].second) + " vs " +
             Num(y[i].second);
    }
  }
  return "";
}

template <typename Input, typename Output>
class BatchRun {
 public:
  BatchRun(BatchWorkload<Input, Output> w, const Options& opt)
      : w_(std::move(w)), opt_(opt), origin_(Clock::now()) {}

  Result Run() {
    Result res;
    // The reference comes first, so the peak-RSS mark can be reset after
    // it and covers only the workload.
    expected_ = w_.reference(w_.generate(opt_.seed));
    ResetPeakRss();

    std::vector<double> setup_s;
    SpanLog setup_log(origin_);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      cluster_.reset();
      input_ = Input();
      setup_log.set_unit(rep);
      const auto t0 = Clock::now();
      input_ = Traced(opt_.trace ? &setup_log : nullptr, "datagen.gen",
                      [&] { return w_.generate(opt_.seed); });
      cluster_ = std::make_unique<Cluster>(
          BatchCluster(w_.budget_bytes, HostThreads()));
      (void)w_.job(cluster_.get(), input_, nullptr);  // warm-up, untimed
      ++res.attempted;
      if (!cluster_->ok()) {
        ++res.failed;
        res.Fail("warm-up job failed: " + cluster_->status().ToString());
      }
      cluster_->Reset();
      setup_s.push_back(SecondsBetween(t0, Clock::now()));
    }

    const double window = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
    const int min_jobs = opt_.trace ? kMinTracedJobs : kMinJobs;
    std::vector<JobSample> plain = Loop(window, min_jobs, nullptr, &res);
    const double peak_rss = PeakRssMb();
    if (!opt_.trace) {
      Report(plain, setup_s, peak_rss, &res);
      return res;
    }

    SpanLog log(origin_);
    std::vector<JobSample> traced = Loop(window, min_jobs, &log, &res);
    // Determinism cross-check: a pool of 1 must reproduce the simulated
    // clock and every engine and spill count exactly.
    {
      Cluster single(BatchCluster(w_.budget_bytes, 1));
      (void)w_.job(&single, input_, nullptr);
      ++res.attempted;
      const std::string diff = CompareCounts(
          single.metrics(), plain.front().metrics,
          "pool of 1 vs pool of " + std::to_string(HostThreads()));
      if (!diff.empty()) {
        ++res.failed;
        res.Fail(diff);
      }
    }
    ReportTraced(plain, traced, setup_log, log, &res);
    WriteSpans(opt_, {&setup_log, &log}, ProvenanceJson(opt_));
    return res;
  }

 private:
  std::vector<JobSample> Loop(double seconds, int min_jobs, SpanLog* log,
                              Result* res) {
    m::obs::TraceRecorder::Options rec_opts;
    rec_opts.record_tasks = false;
    m::obs::TraceRecorder recorder(rec_opts);
    if (log != nullptr) cluster_->set_trace(&recorder);
    std::vector<JobSample> samples;
    const auto start = Clock::now();
    while (samples.size() < static_cast<std::size_t>(min_jobs) ||
           SecondsBetween(start, Clock::now()) < seconds) {
      JobSample s;
      s.unit = next_unit_++;
      if (log != nullptr) log->set_unit(s.unit);
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = Clock::now();
      const Output out = Traced(log, "job", [&] {
        return w_.job(cluster_.get(), input_, log);
      });
      s.wall_s = SecondsBetween(t0, Clock::now());
      s.cpu_s = ProcessCpuSeconds() - cpu0;
      s.metrics = cluster_->metrics();
      s.digest = Digest(out);
      if (log != nullptr) {
        s.breakdown = m::obs::ComputeBreakdown(recorder.current());
      }
      ++res->attempted;
      std::string why;
      if (!cluster_->ok()) {
        why = "job failed: " + cluster_->status().ToString();
      } else if (!digest_) {
        why = w_.check(out, expected_);
        digest_ = s.digest;
        first_metrics_ = s.metrics;
      } else if (s.digest != *digest_) {
        why = "job output digest differs from the first job's";
      } else {
        why = CompareCounts(s.metrics, first_metrics_, "job vs first job");
      }
      if (!why.empty()) {
        ++res->failed;
        res->Fail(why);
      }
      cluster_->Reset();
      samples.push_back(s);
    }
    cluster_->set_trace(nullptr);
    return samples;
  }

  static std::vector<double> Values(
      const std::vector<JobSample>& v,
      const std::function<double(const JobSample&)>& f) {
    std::vector<double> out;
    out.reserve(v.size());
    for (const JobSample& s : v) out.push_back(f(s));
    return out;
  }

  void Report(const std::vector<JobSample>& jobs,
              const std::vector<double>& setup_s, double peak_rss,
              Result* res) const {
    const auto n = static_cast<int64_t>(jobs.size());
    const std::vector<double> wall =
        Values(jobs, [](const JobSample& s) { return s.wall_s; });
    std::string times = "jobs";
    for (double w : wall) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4f", w);
      times += buf;
    }
    res->notes.push_back(times);
    res->Add("job_s", Median(wall), "s", n);
    res->Add("cpu_s", Median(Values(jobs, [](const JobSample& s) {
               return s.cpu_s;
             })),
             "s", n);
    res->Add("sim_s", jobs.front().metrics.simulated_time_s, "sim_s", n);
    res->Add("peak_rss_mb", peak_rss, "MB", 1);
    res->Add("setup_s", Median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()));
    // A batch client is a closed loop of one: each job is one request,
    // due when it is issued, so its latency is its wall time. A run has far
    // fewer than the 1,000 jobs a p99 with ten samples beyond needs, so the
    // tail falls back to the median, and the sustained rate is one job per
    // median job time.
    res->Add("serve_p50_ms", 1e3 * Median(wall), "ms", n);
    res->Add("serve_p99_ms",
             1e3 * (TailResolved(wall.size(), 99) ? Percentile(wall, 99)
                                                  : Median(wall)),
             "ms", n);
    res->Add("serve_max_rps", 1.0 / Median(wall), "1/s", n);
  }

  void ReportTraced(const std::vector<JobSample>& plain,
                    const std::vector<JobSample>& traced,
                    const SpanLog& setup_log, const SpanLog& log,
                    Result* res) const {
    const auto n = static_cast<int64_t>(traced.size());
    auto span_median = [&](const char* name) {
      return Median(Values(traced, [&](const JobSample& s) {
        return log.Sum(name, s.unit);
      }));
    };
    std::vector<double> gen;
    for (const Span& s : setup_log.spans()) gen.push_back(s.end_s - s.start_s);
    res->Add("datagen.gen_s", Median(gen), "s",
             static_cast<int64_t>(gen.size()));
    res->Add("engine.parallelize_s", span_median("engine.parallelize"), "s", n);
    res->Add("engine.collect_s", span_median("engine.collect"), "s", n);
    const Metrics& x = traced.front().metrics;
    for (const auto& [name, value] : ExactCounts(x)) {
      if (std::string(name) == "sim_s") continue;
      res->Add(name, value, std::string(name).find("_mb") != std::string::npos
                                ? "MB"
                                : "count",
               n);
    }
    res->Add("engine.native_iterations",
             static_cast<double>(x.native_iterations), "count", n);
    res->Add("engine.broadcast_reuses",
             static_cast<double>(x.hoisted_broadcast_reuses), "count", n);
    res->Add("engine.convergence_checks",
             static_cast<double>(x.convergence_checks_in_engine), "count", n);
    for (const char* core : {"core.nest", "core.reduce_by_key", "core.distinct",
                             "core.count", "core.scalar_op", "core.zip_keys",
                             "core.map_with_closure", "core.fold",
                             "core.loop"}) {
      res->Add(std::string(core) + "_s", span_median(core), "s", n);
    }
    res->Add("core.loop_self_s", Median(Values(traced, [&](const JobSample& s) {
               return log.SelfSum("core.loop", s.unit);
             })),
             "s", n);
    const double threads = HostThreads();
    res->Add("common.pool_busy_ratio",
             Median(Values(plain, [&](const JobSample& s) {
               return s.cpu_s / (s.wall_s * threads);
             })),
             "ratio", static_cast<int64_t>(plain.size()));
    AddServeLayerZeros(res);
    const m::obs::Breakdown& b = traced.front().breakdown;
    res->Add("sim.job_launch_s", b.job_launch_s, "sim_s", n);
    res->Add("sim.compute_s", b.compute_s, "sim_s", n);
    res->Add("sim.task_overhead_s", b.task_overhead_s, "sim_s", n);
    res->Add("sim.shuffle_s", b.shuffle_s, "sim_s", n);
    res->Add("sim.broadcast_s", b.broadcast_s, "sim_s", n);
    res->Add("sim.spill_s", b.spill_s, "sim_s", n);
    res->Add("sim.collect_s", b.collect_s, "sim_s", n);
    const auto wall = [](const JobSample& s) { return s.wall_s; };
    res->Add("trace.overhead_ratio",
             Median(Values(traced, wall)) / Median(Values(plain, wall)),
             "ratio", n);
  }

  static void AddServeLayerZeros(Result* res) {
    for (const char* name :
         {"lang.parse_ms", "serve.queue_ms_p50", "serve.queue_ms_p99",
          "serve.exec_ms_p50", "serve.exec_ms_p99", "serve.post_ms_p50",
          "loadgen.late_ms_p99"}) {
      res->Add(name, 0.0, "ms", 0);
    }
    res->Add("serve.cache_hit_ratio", 0.0, "ratio", 0);
    res->Add("serve.rejected", 0.0, "count", 0);
    res->Add("serve.backlog_max", 0.0, "count", 0);
  }

  BatchWorkload<Input, Output> w_;
  const Options& opt_;
  Clock::time_point origin_;
  Output expected_;
  Input input_;
  std::unique_ptr<Cluster> cluster_;
  int64_t next_unit_ = 0;
  // Digest and metrics of the first timed job; every later job must match.
  std::optional<uint64_t> digest_;
  Metrics first_metrics_;
};

Result RunBounceRate(const Options& opt, int64_t visits, std::size_t budget) {
  BatchWorkload<std::vector<Visit>, DayRates> w;
  w.generate = [visits](uint64_t seed) {
    return m::datagen::GenerateVisits(visits, kBounceDays, /*zipf_s=*/0.0,
                                      kBounceFraction, seed);
  };
  w.reference = &m::workloads::BounceRateReference;
  w.job = &BounceRateJob;
  w.check = &CheckBounce;
  w.budget_bytes = budget;
  return BatchRun<std::vector<Visit>, DayRates>(std::move(w), opt).Run();
}

Result RunKMeans(const Options& opt) {
  BatchWorkload<GroupedPoints, Models> w;
  w.generate = [](uint64_t seed) {
    return m::datagen::GenerateGroupedPoints(kKMeansPoints, kKMeansRuns,
                                             kKMeansBlobs, seed);
  };
  w.reference = [](const GroupedPoints& points) {
    return m::workloads::KMeansReference(points, kKMeansParams);
  };
  w.job = &KMeansJob;
  w.check = &CheckKMeans;
  return BatchRun<GroupedPoints, Models>(std::move(w), opt).Run();
}

// --- serve-mix --------------------------------------------------------------

/// The bounce-rate program in the surface language, with the request's
/// what-if visit (param "whatif") unioned into the site log.
m::lang::Program WhatIfBounceRateProgram() {
  namespace l = m::lang;
  l::Program program;
  program.stmts.push_back(
      l::Stmt{"log", l::UnionOf(l::Source("visits"), l::Source("whatif"))});
  program.stmts.push_back(l::Stmt{"perDay", l::GroupByKey(l::Var("log"))});
  std::vector<l::Stmt> udf;
  udf.push_back(l::Stmt{
      "countsPerIP",
      l::ReduceByKey(
          l::Map(l::Var("group"),
                 l::Lam("ip", l::MakeTuple({l::Var("ip"),
                                            l::Lit(l::Value(int64_t{1}))}))),
          l::Lam2("a", "b",
                  l::BinOp(l::BinOpKind::kAdd, l::Var("a"), l::Var("b"))))});
  udf.push_back(l::Stmt{
      "numBounces",
      l::Count(l::Filter(
          l::Var("countsPerIP"),
          l::Lam("p", l::BinOp(l::BinOpKind::kEq, l::Field(l::Var("p"), 1),
                               l::Lit(l::Value(int64_t{1}))))))});
  udf.push_back(l::Stmt{"numTotal", l::Count(l::Distinct(l::Var("group")))});
  program.stmts.push_back(l::Stmt{
      "rates",
      l::Map(l::Var("perDay"),
             l::LamProgram({"day", "group"}, std::move(udf),
                           l::BinOp(l::BinOpKind::kDiv, l::Var("numBounces"),
                                    l::Var("numTotal"))))});
  program.result = "rates";
  return program;
}

struct SiteLog {
  const char* plan;
  int64_t visits;
  int64_t days;
};
constexpr std::array<SiteLog, 2> kSiteLogs = {
    SiteLog{"bounce-small", kSmallLogVisits, kSmallLogDays},
    SiteLog{"bounce-large", kLargeLogVisits, kLargeLogDays}};

std::vector<Visit> SiteVisits(std::size_t site, uint64_t seed) {
  return m::datagen::GenerateVisits(kSiteLogs[site].visits,
                                    kSiteLogs[site].days, /*zipf_s=*/0.0,
                                    kBounceFraction, seed + site);
}

/// Plan-body timestamps, recorded by a wrapper around each registered body
/// (bodies run concurrently on the serving workers).
struct BodyRecord {
  int plan = 0;
  uint64_t fingerprint = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

class BodyLog {
 public:
  explicit BodyLog(Clock::time_point origin) : origin_(origin) {}
  double Now() const { return SecondsBetween(origin_, Clock::now()); }
  void Add(BodyRecord r) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
  }
  std::vector<BodyRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(records_, {});
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<BodyRecord> records_;
};

/// One planned request: which plan, which what-if visit.
struct Planned {
  int plan = 0;
  m::lang::Value whatif;
  uint64_t fingerprint = 0;
  double unit_due_s = 0.0;  // due time at a mean rate of 1 request/s
};

m::serve::PlanParams ParamsOf(const Planned& p) {
  m::serve::PlanParams params;
  params.Set("whatif", p.whatif);
  return params;
}

/// The open-loop schedule: Poisson arrivals, plans mixed evenly, and a
/// share of requests that repeat a recent (plan, params) point — recent
/// enough to be in the memo cache, old enough to have completed.
std::vector<Planned> MakeSchedule(uint64_t seed, int64_t n) {
  std::array<std::vector<Visit>, kSiteLogs.size()> logs;
  for (std::size_t i = 0; i < logs.size(); ++i) logs[i] = SiteVisits(i, seed);
  m::Rng rng(seed ^ 0x73657276650aULL);
  std::vector<Planned> out;
  std::array<std::vector<std::size_t>, kSiteLogs.size()> history;
  std::set<std::pair<int, uint64_t>> seen;
  double t = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    Planned p;
    p.plan = rng.NextDouble() < kLargeShare ? 1 : 0;
    auto& past = history[static_cast<std::size_t>(p.plan)];
    if (past.size() >= 24 && rng.NextDouble() < kRepeatShare) {
      // 4 to 24 distinct points back on this plan.
      const std::size_t back = 4 + rng.Uniform(20);
      p = out[past[past.size() - back]];
    } else {
      const std::vector<Visit>& log = logs[static_cast<std::size_t>(p.plan)];
      do {
        // Half the time one more visit by a visitor already in the log,
        // half the time a new visitor (bit 39 is above every generated id).
        Visit v = log[rng.Uniform(log.size())];
        if (rng.NextDouble() < 0.5) {
          v.second = (v.first << 40) | (int64_t{1} << 39) |
                     static_cast<int64_t>(rng.Uniform(uint64_t{1} << 30));
        }
        p.whatif = m::lang::Value::MakeTuple(
            {m::lang::Value(v.first), m::lang::Value(v.second)});
        p.fingerprint = ParamsOf(p).Fingerprint();
      } while (!seen.insert({p.plan, p.fingerprint}).second);
      past.push_back(out.size());
    }
    t += -std::log(1.0 - rng.NextDouble());
    p.unit_due_s = t;
    out.push_back(std::move(p));
  }
  return out;
}

struct StepResult {
  double rate = 0.0;
  std::vector<Arrival> arrivals;
  std::vector<m::serve::ServeResponse> responses;
  std::vector<BodyRecord> bodies;  // body record of each request, if executed
  std::vector<bool> executed;
  m::serve::ServingDriver::Stats stats;
  double cpu_s = 0.0;
  double span_s = 0.0;  // first due -> last completion
};

class ServeMix {
 public:
  explicit ServeMix(const Options& opt)
      : opt_(opt), origin_(Clock::now()), bodies_(origin_) {}

  Result Run() {
    Result res;
    // (rate, requests) of each step. The higher steps get the minimum
    // request count and the nominal step the rest of --seconds; a traced run
    // splits --seconds between an untraced and a traced nominal step.
    std::vector<std::pair<double, int64_t>> plan;
    auto requests_in = [](double seconds, double rate) {
      return std::max<int64_t>(kMinRequestsPerStep,
                               static_cast<int64_t>(seconds * rate));
    };
    if (opt_.trace) {
      const int64_t n = requests_in(opt_.seconds / 2, kNominalRps);
      plan = {{kNominalRps, n}, {kNominalRps, n}};
    } else {
      double rest = opt_.seconds;
      for (std::size_t i = 1; i < kRateSteps.size(); ++i) {
        const double rate = kNominalRps * kRateSteps[i];
        plan.emplace_back(rate, kMinRequestsPerStep);
        rest -= static_cast<double>(kMinRequestsPerStep) / rate;
      }
      plan.insert(plan.begin(), {kNominalRps, requests_in(rest, kNominalRps)});
    }
    schedule_ = MakeSchedule(opt_.seed, plan.front().second);
    ResetPeakRss();

    std::vector<double> setup_s;
    for (int rep = 0; rep < kServeSetupReps; ++rep) {
      setup_log_.set_unit(rep);
      const auto t0 = Clock::now();
      Setup(&res);
      setup_s.push_back(SecondsBetween(t0, Clock::now()));
    }

    std::vector<StepResult> steps;
    for (const auto& [rate, requests] : plan) {
      steps.push_back(RunStep(rate, static_cast<std::size_t>(requests)));
    }
    const double peak_rss = PeakRssMb();
    CheckAgainstReference(steps, &res);
    if (opt_.trace) {
      ReportTraced(steps[0], steps[1], &res);
    } else {
      Report(steps, setup_s, peak_rss, &res);
    }
    return res;
  }

 private:
  /// nproc workers, each running its request serially: with requests also
  /// spread over a shared pool, the neighbours' load on this VM moved the
  /// nominal p50 and p99 by 28% and 55% between runs (7% and 14% serially).
  m::serve::ServingConfig ServingConfigFor(bool cache) const {
    m::serve::ServingConfig cfg;
    cfg.cluster = ServedCluster();
    cfg.max_in_flight = HostThreads();
    cfg.max_queue_depth = static_cast<int>(schedule_.size());
    cfg.cache_entries = cache ? 128 : 0;
    return cfg;
  }

  /// Generates both site logs, registers their plans and runs an untimed
  /// warm-up burst.
  void Setup(Result* res) {
    SpanLog* log = opt_.trace ? &setup_log_ : nullptr;
    registry_ = std::make_unique<m::serve::PlanRegistry>();
    const m::lang::Program program = WhatIfBounceRateProgram();
    for (std::size_t i = 0; i < kSiteLogs.size(); ++i) {
      const SiteLog& site = kSiteLogs[i];
      auto rows = Traced(log, "datagen.gen", [&] {
        const std::vector<Visit> visits = SiteVisits(i, opt_.seed);
        auto v = std::make_shared<std::vector<m::lang::Value>>();
        v->reserve(visits.size());
        for (const auto& [day, ip] : visits) {
          v->push_back(m::lang::Value::MakeTuple(
              {m::lang::Value(day), m::lang::Value(ip)}));
        }
        return v;
      });
      auto spec = Traced(log, "lang.parse", [&] {
        return m::serve::MakeLangPlanSpec(
            site.plan, program, {m::serve::LangSource{"visits", rows}});
      });
      if (!spec.ok()) {
        res->Fail("registering " + std::string(site.plan) + ": " +
                  spec.status().ToString());
        continue;
      }
      m::serve::PlanSpec wrapped = std::move(spec).value();
      const int plan = static_cast<int>(i);
      wrapped.body = [inner = wrapped.body, bodies = &bodies_, plan](
                         Cluster* c, const m::serve::PlanParams& p) {
        const double start = bodies->Now();
        m::serve::PlanOutput out = inner(c, p);
        const double end = bodies->Now();
        bodies->Add({plan, p.Fingerprint(), start, end});
        return out;
      };
      const m::Status st = registry_->Register(std::move(wrapped));
      if (!st.ok()) res->Fail(st.ToString());
    }
    // The warm-up is a concurrent burst rather than one request: a lone
    // request left the first measured step's p99 an order of magnitude
    // above the later steps'.
    m::serve::ServingDriver warm(registry_.get(), ServingConfigFor(true));
    std::vector<std::shared_ptr<m::serve::ServeTicket>> tickets;
    for (int i = 0; i < kWarmupRequests; ++i) {
      const Planned& p = schedule_[static_cast<std::size_t>(i)];
      m::serve::ServeRequest req;
      req.plan = kSiteLogs[static_cast<std::size_t>(p.plan)].plan;
      req.params = ParamsOf(p);
      req.use_cache = false;
      tickets.push_back(warm.Submit(std::move(req)));
    }
    for (const auto& ticket : tickets) {
      const m::serve::ServeResponse& resp = ticket->Wait();
      ++res->attempted;
      if (!resp.status.ok()) {
        ++res->failed;
        res->Fail("warm-up request: " + resp.status.ToString());
      }
    }
    (void)bodies_.Take();
  }

  /// A serving driver whose worker threads run below the load generator's
  /// scheduling priority (threads inherit the nice value of the thread that
  /// creates them), so the generator sends on time as a client on another
  /// machine would. Without it the generator, sharing 4 cores with the busy
  /// serving threads, sent 8 ms late at p99 — twice the median latency it
  /// was measuring.
  std::unique_ptr<m::serve::ServingDriver> MakeDriver() const {
    std::unique_ptr<m::serve::ServingDriver> driver;
    std::thread maker([&] {
      // Lowering a thread's own priority needs no privilege.
      (void)setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()),
                        kServingNice);
      driver = std::make_unique<m::serve::ServingDriver>(
          registry_.get(), ServingConfigFor(true));
    });
    maker.join();
    return driver;
  }

  /// Offers the first `n` scheduled requests at `rate`.
  StepResult RunStep(double rate, std::size_t n) {
    StepResult step;
    step.rate = rate;
    const auto owned = MakeDriver();
    m::serve::ServingDriver& driver = *owned;
    std::vector<std::shared_ptr<m::serve::ServeTicket>> tickets(n);
    step.arrivals.resize(n);
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = bodies_.Now() + 0.005;
    // Poisson gaps, stretched so the step lasts exactly n / rate: the
    // offered rate is then the same for every seed.
    const double stretch = static_cast<double>(n) / rate /
                           schedule_[n - 1].unit_due_s;
    for (std::size_t i = 0; i < n; ++i) {
      const Planned& p = schedule_[i];
      Arrival& a = step.arrivals[i];
      a.due_s = t0 + p.unit_due_s * stretch;
      std::this_thread::sleep_until(
          origin_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(a.due_s)));
      m::serve::ServeRequest req;
      req.plan = kSiteLogs[static_cast<std::size_t>(p.plan)].plan;
      req.params = ParamsOf(p);
      a.sent_s = bodies_.Now();
      tickets[i] = driver.Submit(std::move(req));
    }
    driver.Drain();
    step.cpu_s = ProcessCpuSeconds() - cpu0;
    step.stats = driver.GetStats();
    double last_done = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      m::serve::ServeResponse resp = tickets[i]->Wait();
      Arrival& a = step.arrivals[i];
      a.ok = resp.status.ok() && !resp.rejected;
      a.done_s = a.sent_s + resp.wall_s;
      last_done = std::max(last_done, a.done_s);
      step.executed.push_back(!resp.cache_hit && !resp.rejected);
      step.responses.push_back(std::move(resp));
    }
    step.span_s = last_done - step.arrivals.front().due_s;
    MatchBodies(&step);
    return step;
  }

  /// Pairs each executed request with its plan-body record: requests of one
  /// (plan, params) point start their bodies in submission order.
  void MatchBodies(StepResult* step) {
    std::map<std::pair<int, uint64_t>, std::vector<BodyRecord>> by_key;
    for (const BodyRecord& r : bodies_.Take()) {
      by_key[{r.plan, r.fingerprint}].push_back(r);
    }
    for (auto& [key, records] : by_key) {
      std::sort(records.begin(), records.end(),
                [](const BodyRecord& a, const BodyRecord& b) {
                  return a.start_s < b.start_s;
                });
    }
    std::map<std::pair<int, uint64_t>, std::size_t> used;
    step->bodies.resize(step->arrivals.size());
    for (std::size_t i = 0; i < step->arrivals.size(); ++i) {
      if (!step->executed[i]) continue;
      const auto key =
          std::make_pair(schedule_[i].plan, schedule_[i].fingerprint);
      auto& records = by_key[key];
      std::size_t& next = used[key];
      if (next < records.size()) {
        step->bodies[i] = records[next++];
      } else {
        step->executed[i] = false;  // no body ran (should not happen)
      }
    }
  }

  /// Runs every distinct (plan, params) point once more, serially and with
  /// the cache off, and compares each served response with it.
  void CheckAgainstReference(const std::vector<StepResult>& steps,
                             Result* res) {
    m::serve::ServingDriver reference(registry_.get(),
                                      ServingConfigFor(false));
    std::map<std::pair<int, uint64_t>, std::shared_ptr<m::serve::ServeTicket>>
        tickets;
    for (const Planned& p : schedule_) {
      const auto key = std::make_pair(p.plan, p.fingerprint);
      if (tickets.count(key) != 0) continue;
      m::serve::ServeRequest req;
      req.plan = kSiteLogs[static_cast<std::size_t>(p.plan)].plan;
      req.params = ParamsOf(p);
      req.use_cache = false;
      tickets[key] = reference.Submit(std::move(req));
    }
    reference.Drain();
    (void)bodies_.Take();
    for (const StepResult& step : steps) {
      for (std::size_t i = 0; i < step.responses.size(); ++i) {
        ++res->attempted;
        const m::serve::ServeResponse& got = step.responses[i];
        const auto key =
            std::make_pair(schedule_[i].plan, schedule_[i].fingerprint);
        const m::serve::ServeResponse& want = tickets[key]->Wait();
        std::string why;
        if (got.rejected) {
          why = "request refused: " + got.status.ToString();
        } else if (!got.status.ok()) {
          why = "request failed: " + got.status.ToString();
        } else if (!want.status.ok()) {
          why = "reference failed: " + want.status.ToString();
        } else if (got.output != want.output) {
          why = "response differs from the serial cache-off execution";
        } else {
          // Served under load and through the cache, the reference alone:
          // the serving isolation contract makes their simulated clocks and
          // counts identical.
          why = CompareCounts(got.metrics, want.metrics,
                              "served vs serial execution");
        }
        if (!why.empty()) {
          ++res->failed;
          if (res->errors.size() < 5) res->Fail(why);
          res->correct = false;
        }
      }
    }
  }

  static std::vector<double> Latencies(const StepResult& s) {
    std::vector<double> v;
    v.reserve(s.arrivals.size());
    for (const Arrival& a : s.arrivals) v.push_back(LatencyFromDue(a));
    return v;
  }

  static double DrainLag(const StepResult& s) {
    double last_done = 0.0;
    for (const Arrival& a : s.arrivals) {
      last_done = std::max(last_done, a.ok ? a.done_s : kInf);
    }
    return last_done - s.arrivals.back().due_s;
  }

  static std::vector<double> Phase(const StepResult& s,
                                   double ServePhases::*field) {
    std::vector<double> v;
    for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
      if (!s.executed[i]) continue;
      const ServePhases ph =
          SplitLatency(s.arrivals[i], s.bodies[i].start_s, s.bodies[i].end_s);
      v.push_back(ph.*field);
    }
    return v;
  }

  void Report(const std::vector<StepResult>& steps,
              const std::vector<double>& setup_s, double peak_rss,
              Result* res) const {
    const StepResult& nominal = steps.front();
    const auto n = static_cast<int64_t>(nominal.arrivals.size());
    const std::vector<double> exec = Phase(nominal, &ServePhases::exec_s);
    double sim = 0.0;
    int64_t executed = 0;
    for (std::size_t i = 0; i < nominal.responses.size(); ++i) {
      if (!nominal.executed[i]) continue;
      sim += nominal.responses[i].metrics.simulated_time_s;
      ++executed;
    }
    res->Add("job_s", Median(exec), "s", static_cast<int64_t>(exec.size()));
    res->Add("cpu_s",
             nominal.cpu_s / static_cast<double>(nominal.stats.completed), "s",
             nominal.stats.completed);
    res->Add("sim_s", sim / static_cast<double>(std::max<int64_t>(1, executed)),
             "sim_s", executed);
    res->Add("peak_rss_mb", peak_rss, "MB", 1);
    res->Add("setup_s", Median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()));
    const std::vector<double> lat = Latencies(nominal);
    res->Add("serve_p50_ms", 1e3 * Median(lat), "ms", n);
    res->Add("serve_p99_ms",
             1e3 * WindowedPercentile(lat, 99, kMinRequestsPerStep), "ms", n);
    double max_rps = 0.0;
    for (const StepResult& s : steps) {
      const double p99_ms =
          1e3 * WindowedPercentile(Latencies(s), 99, kMinRequestsPerStep);
      const double drain_ms = 1e3 * DrainLag(s);
      const double achieved = static_cast<double>(s.arrivals.size()) / s.span_s;
      const bool meets =
          p99_ms <= kLatencyLimitMs && drain_ms <= kLatencyLimitMs;
      if (meets) max_rps = std::max(max_rps, achieved);
      char line[256];
      std::snprintf(line, sizeof(line),
                    "step offered=%.1f/s achieved=%.1f/s p50=%.2fms "
                    "p99=%.2fms drain=%.2fms hits=%lld cpu/req=%.2fms %s",
                    s.rate, achieved, 1e3 * Median(Latencies(s)), p99_ms,
                    drain_ms, static_cast<long long>(s.stats.cache_hits),
                    1e3 * s.cpu_s / static_cast<double>(s.stats.completed),
                    meets ? "meets" : "misses");
      res->notes.push_back(line);
    }
    res->Add("serve_max_rps", max_rps, "1/s", n);
  }

  void ReportTraced(const StepResult& plain, const StepResult& traced,
                    Result* res) {
    const auto n = static_cast<int64_t>(traced.arrivals.size());
    // Spans of the traced step, one lane per request.
    SpanLog log(origin_);
    for (std::size_t i = 0; i < traced.arrivals.size(); ++i) {
      const Arrival& a = traced.arrivals[i];
      const auto unit = static_cast<int64_t>(i);
      const int64_t root = log.Add("serve.request", a.due_s,
                                   a.ok ? a.done_s : a.sent_s, -1, unit);
      log.Add("loadgen.late", a.due_s, a.sent_s, root, unit);
      if (!traced.executed[i]) continue;
      const BodyRecord& b = traced.bodies[i];
      log.Add("serve.queue", a.due_s, b.start_s, root, unit);
      log.Add("serve.exec", b.start_s, b.end_s, root, unit);
      log.Add("serve.post", b.end_s, a.done_s, root, unit);
    }

    std::vector<double> gen;
    std::vector<double> parse;
    for (const Span& s : setup_log_.spans()) {
      (s.name == "lang.parse" ? parse : gen).push_back(s.end_s - s.start_s);
    }
    // Generated once per site log: report the per-set-up sum.
    res->Add("datagen.gen_s",
             Median(gen) * static_cast<double>(kSiteLogs.size()), "s",
             static_cast<int64_t>(gen.size()));
    res->Add("engine.parallelize_s", 0.0, "s", 0);
    res->Add("engine.collect_s", 0.0, "s", 0);
    // Engine counts per executed request (the driver sums them).
    const auto executed = static_cast<double>(
        std::max<int64_t>(1, traced.stats.completed - traced.stats.cache_hits));
    const Metrics& agg = traced.stats.aggregate;
    for (const auto& [name, value] : ExactCounts(agg)) {
      if (std::string(name) == "sim_s") continue;
      res->Add(name, value / executed,
               std::string(name).find("_mb") != std::string::npos ? "MB"
                                                                   : "count",
               static_cast<int64_t>(executed));
    }
    res->Add("engine.native_iterations", agg.native_iterations / executed,
             "count", static_cast<int64_t>(executed));
    res->Add("engine.broadcast_reuses", agg.hoisted_broadcast_reuses / executed,
             "count", static_cast<int64_t>(executed));
    res->Add("engine.convergence_checks",
             agg.convergence_checks_in_engine / executed, "count",
             static_cast<int64_t>(executed));
    for (const char* core : {"core.nest_s", "core.reduce_by_key_s",
                             "core.distinct_s", "core.count_s",
                             "core.scalar_op_s", "core.zip_keys_s",
                             "core.map_with_closure_s", "core.fold_s",
                             "core.loop_s", "core.loop_self_s"}) {
      res->Add(core, 0.0, "s", 0);
    }
    res->Add("common.pool_busy_ratio",
             traced.cpu_s / (traced.span_s * HostThreads()), "ratio", 1);
    res->Add("lang.parse_ms", 1e3 * Median(parse), "ms",
             static_cast<int64_t>(parse.size()));
    const auto q = Phase(traced, &ServePhases::queue_s);
    const auto e = Phase(traced, &ServePhases::exec_s);
    const auto p = Phase(traced, &ServePhases::post_s);
    const auto ne = static_cast<int64_t>(e.size());
    res->Add("serve.queue_ms_p50", 1e3 * Median(q), "ms", ne);
    res->Add("serve.queue_ms_p99", 1e3 * Percentile(q, 99), "ms", ne);
    res->Add("serve.exec_ms_p50", 1e3 * Median(e), "ms", ne);
    res->Add("serve.exec_ms_p99", 1e3 * Percentile(e, 99), "ms", ne);
    res->Add("serve.post_ms_p50", 1e3 * Median(p), "ms", ne);
    const int64_t completed = std::max<int64_t>(1, traced.stats.completed);
    res->Add("serve.cache_hit_ratio",
             static_cast<double>(traced.stats.cache_hits) /
                 static_cast<double>(completed),
             "ratio", traced.stats.completed);
    res->Add("serve.rejected", static_cast<double>(traced.stats.rejected),
             "count", n);
    const std::vector<int64_t> backlog = BacklogAtArrivals(traced.arrivals);
    res->Add("serve.backlog_max",
             static_cast<double>(
                 *std::max_element(backlog.begin(), backlog.end())),
             "count", n);
    std::vector<double> late;
    for (const Arrival& a : traced.arrivals) late.push_back(SendLateness(a));
    res->Add("loadgen.late_ms_p99", 1e3 * Percentile(late, 99), "ms", n);
    for (const char* sim :
         {"sim.job_launch_s", "sim.compute_s", "sim.task_overhead_s",
          "sim.shuffle_s", "sim.broadcast_s", "sim.spill_s", "sim.collect_s"}) {
      res->Add(sim, 0.0, "sim_s", 0);
    }
    res->Add("trace.overhead_ratio",
             Median(Latencies(traced)) / Median(Latencies(plain)), "ratio", n);
    WriteSpans(opt_, {&setup_log_, &log},
               ProvenanceJson(opt_));
  }

  const Options& opt_;
  Clock::time_point origin_;
  BodyLog bodies_;
  SpanLog setup_log_{origin_};
  std::vector<Planned> schedule_;
  std::unique_ptr<m::serve::PlanRegistry> registry_;
};

// --- output -----------------------------------------------------------------

void Print(const Options& opt, const Result& res) {
  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  for (const Metric& mt : res.metrics) {
    std::printf("metric %-28s %18.6f %-6s n=%lld\n", mt.name.c_str(), mt.value,
                mt.unit.c_str(), static_cast<long long>(mt.samples));
  }
  std::printf("error_rate %.6f (%lld of %lld)\n",
              static_cast<double>(res.failed) /
                  static_cast<double>(std::max<int64_t>(1, res.attempted)),
              static_cast<long long>(res.failed),
              static_cast<long long>(res.attempted));
  for (const std::string& e : res.errors) {
    std::printf("error %s\n", e.c_str());
  }
  std::printf("{\"provenance\": %s}\n", ProvenanceJson(opt).c_str());
  std::string metrics;
  for (const Metric& mt : res.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(mt.name) + ": {\"value\": " + Num(mt.value) +
               ", \"unit\": " + Quote(mt.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      res.correct ? "true" : "false", static_cast<long long>(res.attempted),
      static_cast<long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <bounce-rate|kmeans|"
               "bounce-rate-budget|serve-mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--commit <sha>] "
               "[--source-sha256 <hex>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--commit") {
      opt.commit = value;
    } else if (key == "--source-sha256") {
      opt.source_sha256 = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 == 0 || !(opt.seconds > 0)) return Usage();

  Result res;
  if (opt.workload == "bounce-rate") {
    res = RunBounceRate(opt, kBounceVisits, 0);
  } else if (opt.workload == "bounce-rate-budget") {
    res = RunBounceRate(opt, kBudgetVisits, kBudgetBytes);
  } else if (opt.workload == "kmeans") {
    res = RunKMeans(opt);
  } else if (opt.workload == "serve-mix") {
    res = ServeMix(opt).Run();
  } else {
    return Usage();
  }
  Print(opt, res);
  return res.correct && res.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
