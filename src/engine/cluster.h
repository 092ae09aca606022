#ifndef MATRYOSHKA_ENGINE_CLUSTER_H_
#define MATRYOSHKA_ENGINE_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/failpoints.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/external/memory_budget.h"
#include "obs/trace_recorder.h"

namespace matryoshka::engine {

/// Seeded, fully deterministic fault-injection plan for the simulated
/// cluster. All draws derive from (seed, stage index, task index, attempt),
/// so two runs of the same program with the same plan produce bit-identical
/// metrics, and a plan with every knob at its default injects nothing (the
/// cost model is then byte-for-byte the fault-free one).
///
/// Faults only perturb the *simulated* clock and the fault metrics: the
/// engine still really executes every operator in-process, so computed
/// results never change — exactly the lineage-recompute guarantee of the
/// Spark-like engines the model stands in for.
struct FaultPlan {
  uint64_t seed = 2021;

  /// Probability that one task attempt fails (transient executor fault).
  /// Failed attempts are retried up to `max_task_retries` times with
  /// exponential backoff; exhausting the budget fails the whole run with a
  /// sticky TaskFailed status (distinct from the memory model's OOM).
  double task_failure_prob = 0.0;
  int max_task_retries = 3;
  /// Backoff before retry attempt a is `retry_backoff_s * 2^a`, charged to
  /// the failing task's slot on the simulated clock.
  double retry_backoff_s = 0.5;

  /// Each task attempt independently straggles with this probability, ...
  double straggler_fraction = 0.0;
  /// ... running `straggler_slowdown` times slower than its base cost.
  double straggler_slowdown = 1.0;

  /// Simulated timestamps (seconds) at which one machine is lost. Each
  /// event fires once per run (Reset re-arms them): the cluster permanently
  /// loses one machine's slots, and the stage running when the event fires
  /// re-executes the lost machine's share of its work, multiplied by the
  /// stage input's lineage depth (the narrow chain that must be recomputed
  /// to regenerate the lost partitions).
  std::vector<double> machine_loss_times_s;

  /// If true, the scheduler launches a duplicate of the slowest
  /// `speculation_fraction` of each stage's tasks and takes the earlier
  /// finisher, occupying an extra slot for the duplicate's lifetime.
  bool speculative_execution = false;
  double speculation_fraction = 0.05;

  /// True when any knob can perturb the cost model. Inactive plans take the
  /// exact pre-fault accounting path.
  bool active() const {
    return task_failure_prob > 0.0 || !machine_loss_times_s.empty() ||
           (straggler_fraction > 0.0 && straggler_slowdown != 1.0) ||
           speculative_execution;
  }
};

/// Driver-side recovery policy: checkpointing, driver-level retry, and
/// degraded-mode re-planning after machine loss. Everything here defaults
/// *off*: a default-constructed policy leaves metrics and traces
/// byte-identical to an engine without the recovery subsystem, even under an
/// active FaultPlan (locked down by engine_recovery_test).
struct RecoveryPolicy {
  /// Driver-level retry budget: when a program run fails with a
  /// driver-retryable status (kTaskFailed, kDeadlineExceeded),
  /// RunWithRecovery re-runs it up to this many times instead of letting the
  /// sticky status poison the program. 0 disables driver retries.
  int max_driver_retries = 0;
  /// Backoff before driver retry attempt a is `driver_backoff_s * 2^a`
  /// simulated seconds, charged to the clock and to recovery_time_s.
  double driver_backoff_s = 2.0;
  /// Per-attempt deadline on the simulated clock: an attempt (measured from
  /// Reset / RunWithRecovery entry / the last driver retry) that runs longer
  /// fails with kDeadlineExceeded, which is itself driver-retryable.
  /// 0 disables the deadline.
  double run_deadline_s = 0.0;

  /// Cost-based auto-checkpointing: narrow operators checkpoint their output
  /// when its lineage depth has reached `min_checkpoint_lineage` AND the
  /// expected machine-loss recompute of the chain (depth x lost-machine
  /// share of the bag's compute, over the surviving slots) exceeds the
  /// checkpoint write cost — so machine-loss recompute is bounded by the
  /// checkpoint interval instead of growing with the narrow chain.
  bool auto_checkpoint = false;
  int min_checkpoint_lineage = 4;
  /// Write bandwidth per machine to the simulated replicated store.
  double checkpoint_bytes_per_s = 250e6;
  /// Copies written per checkpoint (HDFS-style replication).
  int checkpoint_replicas = 2;

  /// Degraded-mode re-planning: after machine loss, partition-count
  /// resolution, per-machine shuffle/spill shares, the optimizer's
  /// broadcast-vs-repartition choice, and the broadcast memory budget all
  /// consult available_machines() instead of the static config — and a
  /// broadcast join that no longer fits the shrunken cluster falls back to a
  /// repartition join instead of failing with a sticky OOM.
  bool degraded_replanning = false;

  /// True when any knob departs from the byte-identical default behavior.
  bool active() const {
    return max_driver_retries > 0 || run_deadline_s > 0.0 ||
           auto_checkpoint || degraded_replanning;
  }
};

/// Narrow-operator fusion (deferred execution). Narrow operators (Map,
/// Filter, FlatMap, MapValues, FlatMapValues, ZipWithUniqueId) do not
/// execute immediately: they compose onto a pending per-element
/// pipeline that the next forcing point (any wide operator, any action,
/// Checkpoint, or Bag::Force) runs as ONE fused pass per partition. The
/// simulated cost model is charged at composition time, so data results,
/// Metrics, and exported traces do not depend on where a chain is cut. See
/// DESIGN.md, "The fusion contract".
struct FusionConfig {
  /// Maximum narrow ops composed into one pending chain before a forced
  /// materialization boundary. Bounds the erased hops a loop that keeps
  /// re-assigning a plain Bag (`bag = Map(bag, f)`) piles up: each such
  /// assignment hides the concrete chain type, so the next op re-roots at
  /// the erased feed (one `std::function` call per element per hop). At 1
  /// every narrow op runs as its own pass — the per-op reference the
  /// determinism tests compare default chains against.
  int max_chain_depth = 16;
};

/// Static description of the (simulated) cluster a program runs on, plus the
/// calibration constants of the cost model.
///
/// The engine *really executes* every operator on in-process data, but
/// reports time on a deterministic simulated clock driven by these constants.
/// Defaults model the paper's evaluation cluster (Sec. 9.1): 25 machines,
/// 2 x 8-core CPUs, 22 GB usable memory for Spark per machine, 1 Gb network.
///
/// Data in this repository is scaled down by ~3 orders of magnitude relative
/// to the paper's runs; `data_scale` lets a benchmark declare how many
/// "real" elements one synthetic element stands for, so memory pressure and
/// compute/overhead ratios match the paper's regime.
struct ClusterConfig {
  int num_machines = 25;
  int cores_per_machine = 16;
  /// Memory usable by the engine per machine, in (simulated) bytes.
  double memory_per_machine_bytes = 22.0 * (1ULL << 30);

  /// Fixed cost of launching one job (driver -> scheduler round trip, task
  /// serialization, ...). The paper's inner-parallel workaround pays this per
  /// inner computation per action.
  double job_launch_overhead_s = 0.1;
  /// Per-task scheduling/launch/teardown cost.
  double task_overhead_s = 0.004;
  /// CPU cost per real element per operator pass.
  double per_element_cost_s = 100e-9;
  /// Aggregate network bandwidth per machine (1 Gb/s by default).
  double network_bytes_per_s = 125e6;

  /// Spark-style parallelism default: number of partitions produced by wide
  /// operators when the caller does not override it. The paper sets it to
  /// 3x the total core count; 0 (the default) means exactly that — "auto",
  /// resolved to `3 * total_cores()` when the Cluster is constructed, so
  /// changing num_machines / cores_per_machine rescales it automatically.
  int default_parallelism = 0;

  /// Fraction of machine memory available to a single wide operator's
  /// build/aggregation structures before it starts spilling to disk
  /// (Spark's shuffle/execution memory fraction).
  double execution_memory_fraction = 0.15;
  /// JVM-style object overhead multiplier applied to wide operators'
  /// working sets when checking the execution-memory budget (boxed keys,
  /// hash-table load factors).
  double memory_object_overhead = 3.0;
  /// Time multiplier applied to the portion of a wide operator's input that
  /// exceeds the execution memory and must be spilled and re-read.
  double spill_penalty = 4.0;

  /// REAL (process RAM) byte budget for wide operators' scratch: scatter
  /// buffers and keyed-aggregation builds overflow to unlinked temp-file
  /// runs once their static share of this budget fills, and merge back on
  /// read. 0 (the default) = unbounded = today's purely in-memory execution,
  /// byte-identically. For ANY value — and any pool size — output data,
  /// partition order, key_partitions, and all simulated Metrics are
  /// bit-identical to the unbounded run (the external determinism contract,
  /// DESIGN.md); only real wall-clock and the real_* spill counters change.
  /// Unlike every knob above, this one is NOT simulated: it bounds actual
  /// engine memory so benches can run inputs larger than the scratch budget.
  /// The MATRYOSHKA_REAL_BUDGET environment variable (a plain decimal byte
  /// count; anything else CHECK-fails), when set, overrides a zero
  /// (unbounded) config at Cluster construction — scripts/check.sh spill
  /// uses it to force whole test suites through the external paths; an
  /// explicit nonzero config value always wins.
  std::size_t real_memory_budget_bytes = 0;

  /// Deterministic REAL-fault injection into the external subsystem's
  /// actual IO (injected ENOSPC/EIO/short transfers/corruption/stalls at
  /// every spill syscall boundary, allocation failure at scratch charge
  /// points). Unlike `faults` above — which only perturbs the simulated
  /// cost model — an active plan exercises the engine's REAL error paths:
  /// bounded retry, checksum verification, in-memory fallback, typed
  /// failure. The default plan injects nothing and the disarmed paths are
  /// byte-identical to an engine without the registry. Draws are pure
  /// functions of (seed, worker stream, site, byte offset, epoch), so
  /// injected faults and the real_io_* counters are identical across pool
  /// sizes. The MATRYOSHKA_REAL_FAULTS environment variable
  /// ("<prob>[:<seed>]"), when set and this plan is inactive, arms a
  /// recoverable-only storm (transient EIO + short transfers) at Cluster
  /// construction — scripts/check.sh chaos uses it to force entire suites
  /// through the hardened paths. See common/failpoints.h.
  RealFaultPlan real_faults;

  /// Retry/backoff/fallback policy for real IO faults (injected or from
  /// actual hardware). See common/failpoints.h.
  RealIoPolicy real_io;

  /// How many "real" elements one synthetic element of a freshly loaded
  /// dataset stands for (Parallelize stamps it onto new bags). Every bag
  /// carries its own scale from there on: cardinality-preserving operators
  /// propagate it, while key-collapsing operators (aggregation to a fixed
  /// key space, the tag-sized InnerScalar bags) produce scale-1 bags whose
  /// synthetic cardinality IS the real cardinality. All compute, network,
  /// and memory accounting multiplies by the bag's scale.
  double data_scale = 1.0;

  /// If true, partition tasks run on a thread pool; results are identical,
  /// only real (not simulated) run time changes.
  bool execute_parallel = false;

  /// Worker threads in the real execution pool (with execute_parallel on).
  /// 0 = one per hardware thread. Results are bit-identical for any value
  /// (locked by engine_parallel_determinism_test, which pins it to exercise
  /// real concurrency regardless of the host's core count).
  int pool_threads = 0;

  /// Externally owned pool to execute on instead of spawning a private one
  /// (only consulted with execute_parallel on; pool_threads is then
  /// ignored). The serving layer runs every request's Cluster over ONE
  /// shared pool this way: per-request state (metrics, fault draws, sticky
  /// status, trace sink) stays isolated in each Cluster while the real CPU
  /// work of all in-flight requests interleaves on the shared workers. The
  /// pool must outlive the Cluster; results are bit-identical to a private
  /// pool of any size.
  ThreadPool* shared_pool = nullptr;

  /// Deterministic fault injection; the default plan injects nothing.
  FaultPlan faults;

  /// Driver-side recovery; the default policy changes nothing.
  RecoveryPolicy recovery;

  /// Narrow-operator fusion (the chain-depth cap).
  FusionConfig fusion;

  int total_cores() const { return num_machines * cores_per_machine; }
  /// Memory budget of one task slot (machine memory divided across the
  /// concurrently running tasks of that machine).
  double task_memory_budget() const {
    return memory_per_machine_bytes / cores_per_machine;
  }
};

/// Per-stage annotations the operators pass to AccrueStage so the optional
/// trace sink can label and decompose the stage. Cheap aggregate of
/// literals; irrelevant to the cost model itself.
struct StageContext {
  /// Operator name ("map", "reduceByKey[merge]", ...).
  const char* label = "stage";
  /// Spill inflation already multiplied into the task costs (SpillFactor's
  /// return value); lets the trace separate spill seconds from compute.
  double spill_factor = 1.0;
};

/// Counters and the simulated clock accumulated over a program run.
struct Metrics {
  double simulated_time_s = 0.0;
  int64_t jobs = 0;
  int64_t stages = 0;
  int64_t tasks = 0;
  int64_t elements_processed = 0;
  double shuffle_bytes = 0.0;
  double broadcast_bytes = 0.0;
  double spilled_bytes = 0.0;
  int64_t spill_events = 0;
  double peak_task_bytes = 0.0;
  double peak_machine_bytes = 0.0;
  /// --- Fault injection / recovery (all zero when FaultPlan is inactive) ---
  /// Task attempts that failed transiently (each either retried or, once the
  /// retry budget is exhausted, fatal).
  int64_t failed_tasks = 0;
  /// Retry launches after transient task failures.
  int64_t task_retries = 0;
  /// Speculative duplicates launched for straggling tasks.
  int64_t speculative_launches = 0;
  /// Machine-loss events that fired.
  int64_t machines_lost = 0;
  /// Simulated seconds attributable to recovery: wasted work of failed
  /// attempts, retry backoff, lineage recomputation after machine loss, and
  /// driver-retry backoff.
  double recovery_time_s = 0.0;
  /// --- Recovery subsystem (all zero when RecoveryPolicy is defaulted and
  /// no explicit Checkpoint() is called) ---
  /// Checkpoints written (explicit Checkpoint() calls + auto-checkpoints).
  int64_t checkpoints_written = 0;
  /// Bytes written to the simulated replicated store, replication included.
  double checkpoint_bytes = 0.0;
  /// Driver-level re-runs after retryable failures (RunWithRecovery).
  int64_t driver_retries = 0;
  /// Degraded-mode plan fallbacks (e.g. broadcast join -> repartition join
  /// after machine loss shrank the broadcast memory budget).
  int64_t plan_fallbacks = 0;
  /// --- Serving memo cache (all zero outside the serving layer; per-request
  /// metrics never carry them — a cached response returns the memoized
  /// metrics of the original computation byte-identically, and the serving
  /// driver tallies hits/misses/evictions into its *aggregate* metrics
  /// snapshot only) ---
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  /// --- Real (out-of-core) execution, all zero with
  /// real_memory_budget_bytes == 0. These count ACTUAL bytes written to
  /// temp-file runs by the external subsystem — the only Metrics fields
  /// measured on real execution rather than the simulated cost model
  /// (spilled_bytes/spill_events above remain the simulated penalty and are
  /// untouched by the external paths). Deterministic for a fixed budget across
  /// pool sizes (static per-worker quotas; per-worker counters reduced on
  /// the driver in worker order), but EXCLUDED from the "simulated Metrics
  /// identity" of the determinism contract: they legitimately differ
  /// between budget arms. ---
  double real_spilled_bytes = 0.0;
  int64_t real_spill_events = 0;
  int64_t real_spill_runs = 0;
  /// --- Real-fault hardening (all zero with ClusterConfig::real_faults
  /// inactive and healthy hardware; like the real_spill_* counters above
  /// these are measured on real execution, excluded from the simulated
  /// Metrics identity, and deterministic for a fixed plan across pool
  /// sizes). ---
  /// Failpoint firings at spill-IO syscall and scratch-charge sites.
  int64_t real_io_faults_injected = 0;
  /// Bounded-retry attempts after (injected or real) transient IO errors.
  int64_t real_io_retries = 0;
  /// Spill runs whose bytes failed checksum verification on merge-on-read.
  int64_t checksum_failures = 0;
  /// Bounded ops that re-ran / drained in memory because the disk became
  /// unusable (graceful degradation; the output stays bit-identical).
  int64_t inmemory_fallbacks = 0;
  /// --- Native iteration (engine::Iterate; like the real_* counters above
  /// these describe how the engine *really* executed a loop, never the
  /// simulated cost model: no simulated charge depends on them). ---
  /// Iterations executed by engine::Iterate.
  int64_t native_iterations = 0;
  /// Broadcasts skipped because the payload was already resident on every
  /// machine (loop-invariant build sides re-broadcast by a loop body).
  int64_t hoisted_broadcast_reuses = 0;
  /// Convergence predicates evaluated inside the engine (fused
  /// filter+count / filter+notEmpty passes) instead of via materialized
  /// intermediates and a driver round trip.
  int64_t convergence_checks_in_engine = 0;
};

/// Execution context shared by every Bag of one program run: cost-model
/// accounting, sticky error status, and the optional real thread pool.
///
/// Error handling is sticky, Arrow-builder style: the first failure (e.g. a
/// simulated out-of-memory) is recorded, subsequent operators become no-ops
/// producing empty results, and the caller checks `status()` once at the end
/// of the program.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  const Metrics& metrics() const { return metrics_; }
  Metrics& mutable_metrics() { return metrics_; }

  /// Sticky program status. Operators early-out once this is non-OK.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }
  /// Records the first failure; later calls keep the original status.
  void Fail(Status status);
  /// Clears status and metrics (fresh run on the same cluster). With a
  /// trace sink attached, also archives the current trace run and starts a
  /// new one.
  void Reset();

  /// Optional observability sink. Null (the default) is the zero-cost path:
  /// the cost model is byte-identical to a build without tracing. With a
  /// recorder attached every job/stage/task interval, network transfer,
  /// spill, fault event, and optimizer decision is recorded on the
  /// simulated clock; metrics stay bit-identical either way.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }

  // --- Cost-model accounting (called by operators) ---

  /// Marks the start of a dataflow job (an *action* in Spark terms) and
  /// charges the job-launch overhead.
  void BeginJob(const std::string& label);

  /// Charges one stage whose tasks have the given per-task costs (seconds of
  /// single-core work each, already including any UDF weight). Simulates
  /// greedy list scheduling of the tasks onto the cluster's core slots and
  /// advances the clock by task overheads plus the resulting makespan.
  ///
  /// Under an active FaultPlan the per-task durations are perturbed by
  /// deterministic straggler/failure draws (retries with backoff occupy the
  /// task's slot), the slowest tasks may be speculatively duplicated, and
  /// machine-loss events that fire during the stage charge a lineage
  /// recompute of `lineage_depth` upstream narrow stages for the lost
  /// machine's share of the work.
  ///
  /// `stage_ctx` labels the stage for the trace sink and carries the spill
  /// inflation the caller multiplied into the costs; it never affects the
  /// cost model.
  void AccrueStage(const std::vector<double>& task_costs_s,
                   int lineage_depth = 1, const StageContext& stage_ctx = {});

  /// Charges moving `bytes` (real, i.e. already multiplied by the source
  /// bag's scale) across the shuffle: each machine sends/receives its share
  /// at the configured bandwidth.
  void AccrueShuffle(double bytes, const char* label = "shuffle");

  /// Charges collecting `bytes` (real) to the driver and re-distributing
  /// them to every machine. Fails with OutOfMemory if the broadcast data
  /// does not fit into a single machine's memory.
  void AccrueBroadcast(double bytes, const char* label = "broadcast");

  /// Non-failing variant of AccrueBroadcast: returns OutOfMemory (without
  /// poisoning the cluster) when the data does not fit the broadcast memory
  /// budget, so degraded-mode planners can intercept and fall back to a
  /// repartition join; charges the transfer and returns OK otherwise.
  Status TryAccrueBroadcast(double bytes, const char* label = "broadcast");

  /// Charges writing `bytes` (real, pre-replication) to the simulated
  /// replicated store: every live machine writes its share of
  /// `bytes * checkpoint_replicas` in parallel at the policy's bandwidth.
  /// Counted in checkpoints_written / checkpoint_bytes and traced as a
  /// kCheckpoint driver span — NOT as a stage, so checkpointing never shifts
  /// stage indices (fault draws stay comparable across A/B runs).
  void AccrueCheckpoint(double bytes, const char* label = "checkpoint");

  /// Seconds one checkpoint of `bytes` (real, pre-replication) would take;
  /// used by the auto-checkpoint policy's cost comparison.
  double CheckpointWriteSeconds(double bytes) const {
    const auto replicas =
        static_cast<double>(std::max(1, config_.recovery.checkpoint_replicas));
    return bytes * replicas /
           (static_cast<double>(available_machines()) *
            config_.recovery.checkpoint_bytes_per_s);
  }

  /// Clears a driver-retryable sticky failure so the driver can re-run the
  /// program: charges `backoff_s` to the clock and recovery_time_s, counts
  /// driver_retries, and re-arms the per-attempt deadline. Metrics otherwise
  /// keep accumulating — the failed attempt's simulated time really passed.
  /// No-op when the cluster is OK. (Use engine::RunWithRecovery instead of
  /// calling this directly.)
  void BeginDriverRetry(double backoff_s, const std::string& why);

  /// Starts a deadline window at the current simulated time (RunWithRecovery
  /// calls this on entry; Reset and BeginDriverRetry re-arm it too).
  void ArmRunDeadline() { attempt_start_s_ = metrics_.simulated_time_s; }

  /// Counts a degraded-mode plan fallback (broadcast -> repartition, ...).
  void NotePlanFallback(const char* what);

  /// Charges transferring `bytes` (real) to the driver (the network half of
  /// a collect action).
  void AccrueCollect(double bytes, const char* label = "collect");

  /// Verifies that one task holding `bytes` of live data (real bytes, e.g.
  /// one materialized group in a groupByKey times the workload's expansion
  /// factor) fits into a task slot's memory budget; fails with OutOfMemory
  /// otherwise.
  void CheckTaskMemory(double bytes, const std::string& what);

  /// Accounts a wide operator's per-machine working set (real bytes): if it
  /// exceeds the execution-memory budget the exceeding fraction is charged
  /// the spill penalty. Returns the time multiplier (>= 1) the caller
  /// applies to the stage compute cost.
  double SpillFactor(double per_machine_bytes);

  /// The real scratch-memory accountant of the external (out-of-core)
  /// execution subsystem. Unbounded (total 0) when
  /// real_memory_budget_bytes == 0: wide operators then take the purely
  /// in-memory paths.
  const external::MemoryBudget& real_budget() const { return real_budget_; }

  /// The real-fault injection registry, armed from config().real_faults at
  /// construction (possibly via MATRYOSHKA_REAL_FAULTS). External-execution
  /// workers consult it at every spill syscall boundary; disarmed (the
  /// default) it is a single-branch no-op. Never null.
  const FailpointRegistry* failpoints() const { return &failpoints_; }

  /// Records one bounded phase's REAL spill totals (already reduced in
  /// worker order by the caller) into the real_* Metrics and, with a trace
  /// sink attached, as a zero-width kSpill driver span at the current
  /// simulated time. Never advances the simulated clock and never touches
  /// the simulated spill counters: real spilling must leave every simulated
  /// quantity bit-identical to the unbounded run. Driver-side only.
  void NoteRealSpill(const external::SpillStats& stats, const char* label);

  // --- Native iteration (engine::Iterate; see iterate.h) ---

  /// Records one native loop iteration: counts native_iterations and, with a
  /// trace sink attached, records a zero-width kIterate driver span at the
  /// current simulated time (native iteration never advances the simulated
  /// clock — the spans only delimit the loop structure).
  void NoteNativeIteration(const char* label, int64_t iteration);

  /// Counts one convergence predicate evaluated inside the engine (a fused
  /// filter+count / filter+notEmpty pass; the iterate.h convergence
  /// primitives call it).
  void NoteConvergenceCheckInEngine();

  /// True when `payload` (a broadcast build side, identified by its shared
  /// partition storage) is already resident on every machine: an earlier
  /// broadcast of the same storage succeeded since the last Reset. Resident
  /// payloads need no new collect/redistribution — broadcast sites skip the
  /// transfer charge and the bytes accounting but keep their per-task
  /// probe-build costs.
  bool BroadcastResident(const void* payload) const {
    return resident_broadcast_keys_.count(payload) != 0;
  }

  /// Registers a successfully broadcast payload as resident until the next
  /// Reset. Holds shared ownership of the partition storage so its address
  /// cannot be reused by a different bag while registered (which would
  /// alias a never-broadcast payload onto a resident key).
  void NoteBroadcastResident(std::shared_ptr<const void> payload);

  /// Counts one resident-broadcast reuse into hoisted_broadcast_reuses.
  void NoteHoistedBroadcastReuse();

  /// Seconds of single-core compute for `n` real elements at weight `w`.
  double ComputeCost(double n, double w) const {
    return n * config_.per_element_cost_s * w;
  }

  /// Thread pool for real parallel execution, or nullptr when disabled.
  /// Either privately owned or the config's shared_pool.
  ThreadPool* pool() { return pool_ptr_; }

  // --- Driver-thread contract ---
  //
  // A Cluster (and every Bag on it) is single-threaded BY DESIGN: all
  // cost-model accounting, fault draws, and pending-chain forcing happen on
  // one "driver" thread, which is what makes runs bit-identical. The pool
  // only ever executes closed per-index bodies handed over by ParallelFor.
  // The driver thread is whichever thread constructed the Cluster; a thread
  // that legitimately takes over a Cluster (e.g. a serving worker executing
  // a request on a Cluster built elsewhere) must call BindDriverThread()
  // first. CheckDriverThread turns a violation — previously silent UB —
  // into an immediate CHECK failure with an actionable message.

  /// Re-binds the driver thread to the calling thread. Only call while no
  /// operator is executing (between requests / before the program starts).
  void BindDriverThread() { driver_thread_ = std::this_thread::get_id(); }

  /// True on the thread that owns this Cluster's driver role.
  bool OnDriverThread() const {
    return std::this_thread::get_id() == driver_thread_;
  }

  /// Aborts with an actionable message when called off the driver thread.
  /// Called by Bag::Force() (and available to any driver-side entry point):
  /// forcing a pending fused chain off the driver thread would race the
  /// chain's memoization and the cost model. No-op on the driver thread.
  void CheckDriverThread(const char* what) const;

  /// Machines still alive (>= 1; machine-loss events permanently remove
  /// machines until the next Reset).
  int available_machines() const {
    return config_.num_machines - lost_machines_;
  }

  /// Core slots on the machines still alive.
  int available_cores() const {
    return available_machines() * config_.cores_per_machine;
  }

  // --- Degraded-aware planning accessors. With degraded_replanning off (the
  // default) these return the static config values, byte-identically to the
  // pre-recovery engine; with it on they track available_machines(). ---

  /// Machine count planners should divide per-machine shares by.
  int planning_machines() const {
    return config_.recovery.degraded_replanning ? available_machines()
                                                : config_.num_machines;
  }

  /// Core count planners should size repartition-vs-broadcast choices by.
  int planning_cores() const {
    return config_.recovery.degraded_replanning ? available_cores()
                                                : config_.total_cores();
  }

  /// Default wide-operator partition count, scaled down with the cluster
  /// when degraded re-planning is on (never below 1).
  int64_t effective_parallelism() const {
    const auto base = static_cast<int64_t>(config_.default_parallelism);
    if (!config_.recovery.degraded_replanning || lost_machines_ == 0) {
      return base;
    }
    return std::max<int64_t>(
        1, base * available_machines() / config_.num_machines);
  }

  /// Memory a broadcast must fit into. Degraded mode shrinks it with the
  /// lost machines' share: the survivors also hold the dead machines'
  /// re-replicated partitions, so broadcast headroom shrinks proportionally.
  double broadcast_memory_budget() const {
    if (!config_.recovery.degraded_replanning || lost_machines_ == 0) {
      return config_.memory_per_machine_bytes;
    }
    return config_.memory_per_machine_bytes *
           static_cast<double>(available_machines()) /
           static_cast<double>(config_.num_machines);
  }

 private:
  /// One entry of a stage's scheduled task list: the slot time of one task
  /// copy plus its trace annotations.
  struct ScheduledTask {
    double duration_s = 0.0;
    int64_t task_index = 0;
    /// Fault-free slot time (the caller-provided cost, incl. spill).
    double base_cost_s = 0.0;
    int retries = 0;
    bool speculative = false;
  };

  /// Greedy list scheduling of `sched` onto `slots` identical cores.
  /// Returns the makespan; when a trace sink is attached, records the
  /// per-slot task spans and the critical-slot decomposition for the stage
  /// opened as `trace_stage_id` starting at simulated time `t0`.
  double ScheduleStage(const std::vector<ScheduledTask>& sched, int slots,
                       double t0, int64_t trace_stage_id,
                       const StageContext& stage_ctx);

  /// Simulated duration one task copy occupies its slot: base cost perturbed
  /// by straggler and failure/retry draws keyed on (stage, task, salt).
  /// Sets *exhausted when the retry budget ran out and counts the retry
  /// launches into *retries.
  double SimulateTaskAttempts(double base_cost_s, uint64_t stage_index,
                              uint64_t task_index, uint64_t copy_salt,
                              bool* exhausted, int* retries);

  /// Fires every machine-loss event reached by the simulated clock; a stage
  /// whose execution window covers an event re-executes the lost machine's
  /// share (`stage_cost_s` single-core seconds over `num_tasks` tasks) times
  /// `lineage_depth`.
  void ProcessMachineLossEvents(double stage_cost_s, int64_t num_tasks,
                                int lineage_depth);

  /// Fails with kDeadlineExceeded when the current attempt has outrun the
  /// policy's run_deadline_s. No-op with the deadline off (the default).
  void CheckDeadline();

  /// The network transfer + trace span of a fitting broadcast.
  void ChargeBroadcastTransfer(double bytes, const char* label);

  ClusterConfig config_;
  Metrics metrics_;
  Status status_;
  /// Real scratch budget (constructed once from the resolved config; the
  /// accountant itself is thread-safe, the total immutable).
  external::MemoryBudget real_budget_;
  /// Real-fault injection registry (armed once in the ctor; the epoch is
  /// bumped by driver retries so a retried attempt sees fresh draws).
  FailpointRegistry failpoints_;
  obs::TraceRecorder* trace_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  /// The pool operators actually run on: pool_.get(), the config's
  /// shared_pool, or nullptr (serial execution).
  ThreadPool* pool_ptr_ = nullptr;
  /// Thread that owns the driver role (see BindDriverThread).
  std::thread::id driver_thread_;
  /// Broadcast-residency registry: partition storages broadcast since the
  /// last Reset. The shared_ptrs keep the storages alive (address-reuse
  /// safety); the key set gives O(1) lookups. Driver-thread only.
  std::vector<std::shared_ptr<const void>> resident_broadcasts_;
  std::unordered_set<const void*> resident_broadcast_keys_;
  /// Sorted copy of config_.faults.machine_loss_times_s.
  std::vector<double> loss_times_;
  std::size_t next_loss_event_ = 0;
  int lost_machines_ = 0;
  /// Simulated time the current driver attempt started (deadline window).
  double attempt_start_s_ = 0.0;
};

namespace internal {

/// ParallelFor with operator-grade exception safety: a body that throws no
/// longer unwinds into the pool's WaitIdle (std::terminate) — ParallelFor
/// itself catches per-chunk exceptions, completes the barrier, and rethrows
/// the winning (lowest-index) one here, where it becomes the cluster's
/// sticky typed status. Every engine operator funnels its per-partition
/// bodies through this wrapper, so a throwing UDF fails the one program
/// (and, in the serving layer, the one request) instead of the process.
template <typename Body>
void GuardedParallelFor(Cluster* c, std::size_t n, const Body& body) {
  try {
    ParallelFor(c->pool(), n, body);
  } catch (const std::exception& e) {
    c->Fail(Status::Internal(std::string("uncaught exception in parallel "
                                         "task body: ") +
                             e.what()));
  } catch (...) {
    c->Fail(Status::Internal(
        "uncaught non-std exception in parallel task body"));
  }
}

}  // namespace internal

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_CLUSTER_H_
