#ifndef MATRYOSHKA_BENCH_BENCH_UTIL_H_
#define MATRYOSHKA_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/cluster.h"
#include "obs/breakdown.h"
#include "obs/chrome_trace.h"
#include "obs/json_writer.h"
#include "obs/trace_recorder.h"
#include "workloads/workload.h"

/// Shared setup for the per-figure benchmark binaries. Each binary
/// regenerates one figure of the paper's evaluation (Sec. 9): it sweeps the
/// figure's x-axis as google-benchmark args and reports the *simulated*
/// cluster time as manual time, plus jobs / shuffle / OOM status as
/// counters. Runs that the paper reports as failing (out of memory) are
/// reported with counter oom=1 and time 0.
///
/// Observability: every binary built with MATRYOSHKA_BENCH_MAIN accepts
///   --trace=FILE         Chrome/Perfetto trace_event JSON of all runs
///   --metrics-json=FILE  machine-readable per-run metrics (+ breakdown of
///                        traced runs)
/// (both stripped before benchmark::Initialize). Benchmarks opt runs in by
/// calling ObsAttach(&cluster, "figN/variant", {args}) before the state
/// loop; with neither flag present the cluster keeps a null trace sink and
/// the cost model takes the exact zero-cost path.
namespace matryoshka::bench {

/// The paper's evaluation cluster (Sec. 9.1): 25 machines, 2x8 cores, 22 GB
/// for Spark per machine, 1 Gb network, parallelism 3x total cores.
inline engine::ClusterConfig PaperCluster() {
  engine::ClusterConfig cfg;
  cfg.num_machines = 25;
  cfg.cores_per_machine = 16;
  cfg.memory_per_machine_bytes = 22.0 * (1ULL << 30);
  cfg.network_bytes_per_s = 125e6;
  cfg.job_launch_overhead_s = 0.1;
  cfg.task_overhead_s = 0.004;
  cfg.per_element_cost_s = 100e-9;
  // default_parallelism stays 0 = auto (3x total cores).
  return cfg;
}

/// The larger cluster of Sec. 9.7: 36 machines with 40 hardware threads and
/// 100 GB memory per Spark worker.
inline engine::ClusterConfig LargePaperCluster() {
  engine::ClusterConfig cfg = PaperCluster();
  cfg.num_machines = 36;
  cfg.cores_per_machine = 40;
  cfg.memory_per_machine_bytes = 100.0 * (1ULL << 30);
  return cfg;
}

/// The reference fault regime for A/B (faults on vs. off) runs: occasional
/// transient task failures with a generous retry budget (so runs survive),
/// a sprinkle of 4x stragglers, and one machine lost early in the run. All
/// draws are seeded: every benchmark iteration sees the identical fault
/// history.
inline engine::FaultPlan StandardFaultPlan(uint64_t seed = 2021) {
  engine::FaultPlan plan;
  plan.seed = seed;
  plan.task_failure_prob = 0.01;
  plan.max_task_retries = 6;
  plan.retry_backoff_s = 0.5;
  plan.straggler_fraction = 0.05;
  plan.straggler_slowdown = 4.0;
  plan.machine_loss_times_s = {30.0};
  return plan;
}

/// The reference recovery policy for checkpointed A/B arms: a generous
/// driver-retry budget with auto-checkpointing and degraded re-planning on.
/// Checkpoint bandwidth matches the 1 Gb network of PaperCluster.
inline engine::RecoveryPolicy StandardRecoveryPolicy() {
  engine::RecoveryPolicy policy;
  policy.max_driver_retries = 8;
  policy.driver_backoff_s = 2.0;
  policy.auto_checkpoint = true;
  policy.min_checkpoint_lineage = 4;
  policy.checkpoint_bytes_per_s = 125e6;
  policy.checkpoint_replicas = 2;
  policy.degraded_replanning = true;
  return policy;
}

/// Parses and strips a `--faults[=prob]` flag (must precede
/// benchmark::Initialize, which rejects unknown flags). Returns the task
/// failure probability to use for the fault-on arms: the StandardFaultPlan
/// default when the flag is absent, or the given override.
inline double ParseFaultsFlag(int* argc, char** argv) {
  double prob = StandardFaultPlan().task_failure_prob;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) continue;  // default prob
    if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      prob = std::atof(argv[i] + 9);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return prob;
}

/// Declares that the synthetic dataset of `synthetic_elements` elements
/// (about `bytes_per_element` estimated bytes each) stands for
/// `target_gb` GB of real data: sets data_scale so that each synthetic
/// element models R real ones in both CPU and memory terms.
inline void ScaleToTarget(engine::ClusterConfig* cfg, double target_gb,
                          int64_t synthetic_elements,
                          double bytes_per_element) {
  const double real_elements =
      target_gb * (1ULL << 30) / bytes_per_element;
  cfg->data_scale = real_elements / static_cast<double>(synthetic_elements);
}

/// Process-wide observability session for one bench binary: owns the
/// TraceRecorder behind the `--trace` / `--metrics-json` flags, collects one
/// record per reported run, and writes both files at exit. With neither flag
/// present it stays disabled and every hook is a no-op (clusters keep a null
/// trace sink).
class ObsSession {
 public:
  static ObsSession& Get() {
    static ObsSession session;
    return session;
  }

  /// Parses and strips `--trace=FILE` and `--metrics-json=FILE` (must run
  /// before benchmark::Initialize, which rejects unknown flags).
  void ParseFlags(int* argc, char** argv) {
    if (*argc >= 1 && binary_.empty()) {
      const char* slash = std::strrchr(argv[0], '/');
      binary_ = slash != nullptr ? slash + 1 : argv[0];
    }
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strncmp(argv[i], "--trace=", 8) == 0) {
        trace_path_ = argv[i] + 8;
        continue;
      }
      if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
        metrics_path_ = argv[i] + 15;
        continue;
      }
      argv[out++] = argv[i];
    }
    *argc = out;
  }

  bool enabled() const {
    return !trace_path_.empty() || !metrics_path_.empty();
  }

  /// The recorder benches attach to clusters, or nullptr when disabled.
  obs::TraceRecorder* recorder() { return enabled() ? &recorder_ : nullptr; }

  /// Names the runs the attached cluster will record from here on
  /// ("fig1/inner-parallel/64"); applies from the next Cluster::Reset.
  void SetRunName(std::string name) {
    if (enabled()) recorder_.SetRunNameHint(std::move(name));
  }

  /// Snapshots the finished current run (breakdown + engine metrics) into
  /// the metrics report and marks it consumed.
  void ReportRun(const engine::Metrics& metrics, bool ok,
                 const std::string& status) {
    if (!enabled()) return;
    obs::RunTrace& run = recorder_.current();
    run.reported = true;
    RunRecord rec;
    rec.name = run.name;
    rec.ok = ok;
    rec.status = status;
    rec.metrics = metrics;
    rec.breakdown = obs::ComputeBreakdown(run);
    records_.push_back(std::move(rec));
  }

  /// Writes the requested files; call once after RunSpecifiedBenchmarks.
  void Finalize() {
    if (!trace_path_.empty()) {
      std::ofstream os(trace_path_);
      obs::WriteChromeTrace(recorder_, os);
    }
    if (!metrics_path_.empty()) {
      std::ofstream os(metrics_path_);
      WriteMetricsJson(os);
    }
  }

  /// Real wall-clock measurement of one run (bench_engine_throughput): the
  /// engine *really executes* every operator, and these are the only numbers
  /// in the metrics report measured on the hardware clock rather than the
  /// simulated one.
  struct WallStats {
    double real_s = 0.0;
    int64_t elements = 0;
    double elements_per_s = 0.0;
    /// Serving-load extension (bench_serving): sustained request throughput
    /// and per-request wall-clock latency percentiles. Emitted into the
    /// "wall" object only when has_latency is set — an additive extension
    /// of the matryoshka-bench-metrics-v1 schema (validators assert key
    /// subsets, so older readers are unaffected).
    bool has_latency = false;
    double requests_per_s = 0.0;
    double p50_s = 0.0;
    double p99_s = 0.0;
  };

  /// Appends one named record directly, without the trace recorder: wall-time
  /// benches keep the measured region free of observability overhead (no
  /// trace sink attached to the cluster), then report the final metrics and
  /// the wall-clock stats here.
  void ReportNamedRun(std::string name, const engine::Metrics& metrics,
                      bool ok, const std::string& status,
                      const WallStats& wall) {
    if (!enabled()) return;
    RunRecord rec;
    rec.name = std::move(name);
    rec.ok = ok;
    rec.status = status;
    rec.metrics = metrics;
    rec.has_wall = true;
    rec.wall = wall;
    // Last write wins: google-benchmark re-invokes the function while
    // calibrating the iteration count, and only the final (longest)
    // measurement should survive in the snapshot.
    for (RunRecord& existing : records_) {
      if (existing.name == rec.name) {
        existing = std::move(rec);
        return;
      }
    }
    records_.push_back(std::move(rec));
  }

 private:
  struct RunRecord {
    std::string name;
    bool ok = true;
    std::string status;
    engine::Metrics metrics;
    /// Only traced runs (ReportRun) have one.
    std::optional<obs::Breakdown> breakdown;
    bool has_wall = false;
    WallStats wall;
  };

  void WriteMetricsJson(std::ostream& os) const {
    os << "{\n  \"schema\": \"matryoshka-bench-metrics-v1\",\n";
    os << "  \"binary\": \"" << obs::JsonEscape(binary_) << "\",\n";
    os << "  \"runs\": [";
    bool first = true;
    for (const RunRecord& rec : records_) {
      if (!first) os << ",";
      first = false;
      const engine::Metrics& m = rec.metrics;
      os << "\n    {\"name\": \"" << obs::JsonEscape(rec.name) << "\", ";
      os << "\"ok\": " << (rec.ok ? "true" : "false") << ", ";
      os << "\"status\": \"" << obs::JsonEscape(rec.status) << "\",\n";
      os << "     \"metrics\": {";
      os << "\"simulated_time_s\": " << obs::JsonDouble(m.simulated_time_s);
      os << ", \"jobs\": " << m.jobs;
      os << ", \"stages\": " << m.stages;
      os << ", \"tasks\": " << m.tasks;
      os << ", \"elements_processed\": " << m.elements_processed;
      os << ", \"shuffle_bytes\": " << obs::JsonDouble(m.shuffle_bytes);
      os << ", \"broadcast_bytes\": " << obs::JsonDouble(m.broadcast_bytes);
      os << ", \"spilled_bytes\": " << obs::JsonDouble(m.spilled_bytes);
      os << ", \"spill_events\": " << m.spill_events;
      os << ", \"peak_task_bytes\": " << obs::JsonDouble(m.peak_task_bytes);
      os << ", \"peak_machine_bytes\": "
         << obs::JsonDouble(m.peak_machine_bytes);
      os << ", \"failed_tasks\": " << m.failed_tasks;
      os << ", \"task_retries\": " << m.task_retries;
      os << ", \"speculative_launches\": " << m.speculative_launches;
      os << ", \"machines_lost\": " << m.machines_lost;
      os << ", \"recovery_time_s\": " << obs::JsonDouble(m.recovery_time_s);
      os << ", \"checkpoints_written\": " << m.checkpoints_written;
      os << ", \"checkpoint_bytes\": " << obs::JsonDouble(m.checkpoint_bytes);
      os << ", \"driver_retries\": " << m.driver_retries;
      os << ", \"plan_fallbacks\": " << m.plan_fallbacks;
      // Additive matryoshka-bench-metrics-v1 extension: REAL bytes spilled
      // to temp-file runs by the external (out-of-core) subsystem. All zero
      // unless the run had a real_memory_budget_bytes.
      os << ", \"real_spilled_bytes\": "
         << obs::JsonDouble(m.real_spilled_bytes);
      os << ", \"real_spill_events\": " << m.real_spill_events;
      os << ", \"real_spill_runs\": " << m.real_spill_runs;
      // Additive extension (real-fault contract): injected real-IO faults
      // and what the hardened IO layer did about them. All zero unless a
      // RealFaultPlan (or MATRYOSHKA_REAL_FAULTS) armed the failpoints.
      os << ", \"real_io_faults_injected\": " << m.real_io_faults_injected;
      os << ", \"real_io_retries\": " << m.real_io_retries;
      os << ", \"checksum_failures\": " << m.checksum_failures;
      os << ", \"inmemory_fallbacks\": " << m.inmemory_fallbacks;
      // Additive extension (native iteration): real-execution counters of
      // in-engine loops (engine::Iterate); no simulated charge depends on
      // them.
      os << ", \"native_iterations\": " << m.native_iterations;
      os << ", \"hoisted_broadcast_reuses\": " << m.hoisted_broadcast_reuses;
      os << ", \"convergence_checks_in_engine\": "
         << m.convergence_checks_in_engine;
      os << "}";
      if (rec.breakdown.has_value()) {
        os << ",\n     \"breakdown\": ";
        obs::WriteBreakdownJson(*rec.breakdown, os);
      }
      if (rec.has_wall) {
        os << ",\n     \"wall\": {";
        os << "\"real_s\": " << obs::JsonDouble(rec.wall.real_s);
        os << ", \"elements\": " << rec.wall.elements;
        os << ", \"elements_per_s\": "
           << obs::JsonDouble(rec.wall.elements_per_s);
        if (rec.wall.has_latency) {
          os << ", \"requests_per_s\": "
             << obs::JsonDouble(rec.wall.requests_per_s);
          os << ", \"p50_s\": " << obs::JsonDouble(rec.wall.p50_s);
          os << ", \"p99_s\": " << obs::JsonDouble(rec.wall.p99_s);
        }
        os << "}";
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
  }

  obs::TraceRecorder recorder_;
  std::string binary_;
  std::string trace_path_;
  std::string metrics_path_;
  std::vector<RunRecord> records_;
};

/// Attaches the session recorder (if any) to `cluster` and names its
/// upcoming runs `label "/" arg0 "/" arg1 ...` — call once per benchmark
/// invocation, before the state loop. Passing the args explicitly matches
/// google-benchmark's name/arg/... convention without depending on
/// State::name() (absent in older releases).
inline void ObsAttach(engine::Cluster* cluster, const std::string& label,
                      std::initializer_list<int64_t> args = {}) {
  ObsSession& session = ObsSession::Get();
  if (!session.enabled()) return;
  std::string name = label;
  for (int64_t arg : args) {
    name += "/";
    name += std::to_string(arg);
  }
  session.SetRunName(std::move(name));
  cluster->set_trace(session.recorder());
}

/// Fills the benchmark state from a finished run: simulated time as manual
/// time, plus diagnostic counters. OOM runs get time 0 and oom=1 (mirroring
/// the "X" marks of the paper's figures).
template <typename K, typename R>
void Report(benchmark::State& state,
            const workloads::WorkloadResult<K, R>& result) {
  if (result.ok()) {
    state.SetIterationTime(result.metrics.simulated_time_s);
    state.counters["oom"] = 0;
  } else {
    state.SetIterationTime(0.0);
    state.counters["oom"] = result.status.IsOutOfMemory() ? 1 : -1;
    state.SetLabel(result.status.ToString());
  }
  state.counters["jobs"] = static_cast<double>(result.metrics.jobs);
  state.counters["stages"] = static_cast<double>(result.metrics.stages);
  state.counters["shuffle_gb"] =
      result.metrics.shuffle_bytes / (1ULL << 30);
  state.counters["broadcast_gb"] =
      result.metrics.broadcast_bytes / (1ULL << 30);
  state.counters["peak_machine_gb"] =
      result.metrics.peak_machine_bytes / (1ULL << 30);
  state.counters["spills"] = static_cast<double>(result.metrics.spill_events);
  if (result.metrics.failed_tasks > 0 || result.metrics.machines_lost > 0 ||
      result.metrics.speculative_launches > 0) {
    state.counters["retries"] =
        static_cast<double>(result.metrics.task_retries);
    state.counters["failed_tasks"] =
        static_cast<double>(result.metrics.failed_tasks);
    state.counters["recovery_s"] = result.metrics.recovery_time_s;
  }
  if (result.metrics.checkpoints_written > 0 ||
      result.metrics.driver_retries > 0 || result.metrics.plan_fallbacks > 0) {
    state.counters["checkpoints"] =
        static_cast<double>(result.metrics.checkpoints_written);
    state.counters["checkpoint_gb"] =
        result.metrics.checkpoint_bytes / (1ULL << 30);
    state.counters["driver_retries"] =
        static_cast<double>(result.metrics.driver_retries);
    state.counters["plan_fallbacks"] =
        static_cast<double>(result.metrics.plan_fallbacks);
  }
  ObsSession::Get().ReportRun(result.metrics, result.ok(),
                              result.status.ToString());
}

}  // namespace matryoshka::bench

/// Drop-in replacement for BENCHMARK_MAIN() that installs the observability
/// flags (which must be stripped before benchmark::Initialize) and writes
/// the requested trace/metrics files after the benchmarks ran.
#define MATRYOSHKA_BENCH_MAIN()                                            \
  int main(int argc, char** argv) {                                        \
    ::matryoshka::bench::ObsSession::Get().ParseFlags(&argc, argv);        \
    ::benchmark::Initialize(&argc, argv);                                  \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;    \
    ::benchmark::RunSpecifiedBenchmarks();                                 \
    ::benchmark::Shutdown();                                               \
    ::matryoshka::bench::ObsSession::Get().Finalize();                     \
    return 0;                                                              \
  }                                                                        \
  int main(int, char**)

#endif  // MATRYOSHKA_BENCH_BENCH_UTIL_H_
