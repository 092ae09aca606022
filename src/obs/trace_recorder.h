#ifndef MATRYOSHKA_OBS_TRACE_RECORDER_H_
#define MATRYOSHKA_OBS_TRACE_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

/// Structured observability for the simulated cluster (no engine
/// dependencies: the engine pushes plain intervals and records into this
/// sink, so `obs` sits below `engine` in the library graph).
///
/// A TraceRecorder captures, per program run:
///  - every job / stage / task interval on the *simulated* clock, including
///    the fault model's retry / speculation / machine-loss annotations,
///  - driver-side network intervals (shuffle, broadcast, collect) and
///    recovery intervals,
///  - instant events (spills, machine losses, run failure),
///  - the lowering decisions of the Matryoshka optimizer (broadcast vs.
///    repartition join, chosen partition counts, cross-product side) with
///    the runtime cardinalities that justified them.
///
/// Everything is recorded from the driver thread with values that are pure
/// functions of the cost model, so a trace is bit-identical across repeated
/// runs, with the thread pool on or off, and under an active FaultPlan.
namespace matryoshka::obs {

/// What a simulated-time interval was spent on. These are the buckets of the
/// per-run breakdown report (breakdown.h).
enum class Category {
  kJobLaunch,
  kCompute,
  kTaskOverhead,
  kSpill,
  kShuffle,
  kBroadcast,
  kCollect,
  kRecovery,
  /// Replicated checkpoint writes (engine::Checkpoint / auto-checkpoints).
  kCheckpoint,
  /// Per-iteration markers of a native (in-engine) loop. Always zero-width:
  /// native iteration never advances the simulated clock — the spans only
  /// delimit which charges belong to which loop iteration.
  kIterate,
};

const char* CategoryName(Category category);

/// One dataflow job (an action): the span is the job-launch overhead
/// interval charged by the driver.
struct JobSpan {
  int64_t id = 0;
  std::string label;
  double begin_s = 0.0;
  double end_s = 0.0;
};

/// One task attempt chain occupying one core slot. Speculative duplicates
/// appear as a second span with the same task_index and speculative=true.
struct TaskSpan {
  int64_t stage_id = 0;
  int64_t task_index = 0;
  /// Core slot (0 .. slots-1) the greedy list scheduler placed the task on.
  int64_t slot = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  /// Scheduling/launch/teardown cost charged at the head of the span.
  double overhead_s = 0.0;
  /// Fault-free slot time (includes any spill inflation).
  double base_cost_s = 0.0;
  /// Portion of base_cost_s attributable to spill inflation.
  double spill_s = 0.0;
  /// Transient-fault retries this chain went through.
  int retries = 0;
  bool speculative = false;
};

/// One stage: the span covers the scheduled makespan of its tasks. The
/// decomposition fields explain the makespan via the *critical slot* (the
/// slot whose load determined the stage duration): compute + overhead +
/// spill + fault seconds on that slot sum to the stage duration.
struct StageSpan {
  int64_t id = 0;
  /// The job whose action triggered this stage (0 before the first job:
  /// transformations are charged eagerly in this engine).
  int64_t job_id = 0;
  std::string label;
  double begin_s = 0.0;
  double end_s = 0.0;
  int64_t num_tasks = 0;
  int lineage_depth = 1;
  double spill_factor = 1.0;
  int64_t critical_slot = -1;
  double compute_s = 0.0;
  double overhead_s = 0.0;
  double spill_s = 0.0;
  /// Straggler slowdown, wasted failed attempts, and retry backoff on the
  /// critical slot.
  double fault_s = 0.0;
};

/// A driver-side interval that advances the simulated clock outside any
/// stage: network transfers and machine-loss recovery.
struct DriverSpan {
  Category category = Category::kShuffle;
  std::string label;
  double begin_s = 0.0;
  double end_s = 0.0;
  double bytes = 0.0;
};

/// A point event: spill, machine loss, sticky run failure.
struct InstantEvent {
  std::string name;
  std::string detail;
  double t_s = 0.0;
};

/// One lowering decision of the Matryoshka optimizer (Sec. 8), with the
/// runtime cardinalities that justified it.
struct Decision {
  /// Which choice point: "tag-join", "half-lifted-cross",
  /// "scalar-partitions".
  std::string primitive;
  /// The chosen physical implementation / value.
  std::string choice;
  /// Human-readable justification.
  std::string rationale;
  /// InnerScalar cardinality driving the decision (-1 when not applicable).
  int64_t num_tags = -1;
  /// Chosen partition count (-1 when not applicable).
  int64_t partitions = -1;
  /// Size estimates for the cross-product choice (-1 when not applicable).
  double scalar_bytes = -1.0;
  double primary_bytes = -1.0;
};

/// Everything recorded between two Cluster::Reset calls.
struct RunTrace {
  std::string name;
  std::vector<JobSpan> jobs;
  std::vector<StageSpan> stages;
  std::vector<TaskSpan> tasks;
  std::vector<DriverSpan> driver;
  std::vector<InstantEvent> instants;
  std::vector<Decision> decisions;
  /// Largest slot index that ran a task (-1 if none); sizes the per-slot
  /// timelines of the Chrome export.
  int64_t max_slot = -1;
  /// Set once the run was consumed by a reporting layer (bench_util); keeps
  /// run records and runs in one-to-one correspondence.
  bool reported = false;

  bool IsEmpty() const {
    return jobs.empty() && stages.empty() && tasks.empty() &&
           driver.empty() && instants.empty() && decisions.empty();
  }
};

/// The sink the Cluster (and the optimizer) record into. Recording is
/// append-only and driver-thread-only; export lives in chrome_trace.h /
/// breakdown.h / plan_capture.h.
class TraceRecorder {
 public:
  struct Options {
    /// Record per-task spans (the per-slot timelines). Stage spans and the
    /// critical-path decomposition are always recorded.
    bool record_tasks = true;
    /// Per-stage cap on task spans: stages with more scheduled task copies
    /// record none (the decomposition still covers them). Bounds trace size
    /// on huge sweeps without affecting any metric.
    int64_t max_task_spans_per_stage = 1 << 14;
  };

  TraceRecorder() = default;
  explicit TraceRecorder(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Name used for the next started (or first lazily-created) run.
  void SetRunNameHint(std::string hint) { name_hint_ = std::move(hint); }

  /// Archives the current run and opens a fresh one (Cluster::Reset calls
  /// this). An untouched current run is recycled instead of archived.
  void StartRun();

  /// The run currently being recorded (created on demand).
  RunTrace& current();
  bool has_runs() const { return !runs_.empty(); }
  const std::vector<RunTrace>& runs() const { return runs_; }

  // --- Recording (called by the engine on the driver thread) ---

  void AddJob(const std::string& label, double begin_s, double end_s);

  /// Opens a stage; returns its id for AddTask/EndStage.
  int64_t AddStage(const char* label, int64_t job_id, double begin_s,
                   int64_t num_tasks, int lineage_depth, double spill_factor);

  /// True when AddTask calls for a stage of `scheduled` task copies should
  /// be recorded (the per-stage cap).
  bool ShouldRecordTasks(int64_t scheduled) const {
    return options_.record_tasks &&
           scheduled <= options_.max_task_spans_per_stage;
  }

  void AddTask(TaskSpan span);

  /// Closes a stage with its end time and critical-slot decomposition.
  void EndStage(int64_t stage_id, double end_s, int64_t critical_slot,
                double compute_s, double overhead_s, double spill_s,
                double fault_s);

  void AddDriverSpan(Category category, const char* label, double begin_s,
                     double end_s, double bytes);

  void AddInstant(const char* name, std::string detail, double t_s);

  void AddDecision(Decision decision);

 private:
  Options options_;
  std::string name_hint_;
  std::vector<RunTrace> runs_;
};

}  // namespace matryoshka::obs

#endif  // MATRYOSHKA_OBS_TRACE_RECORDER_H_
