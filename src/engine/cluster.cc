#include "engine/cluster.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <queue>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace matryoshka::engine {

namespace {

// Salts separating the independent draw streams of the fault plan.
constexpr uint64_t kSaltStraggler = 0x5354524147474c52ULL;
constexpr uint64_t kSaltFailure = 0x4641494c55524553ULL;
constexpr uint64_t kSaltDetect = 0x4445544543544954ULL;
constexpr uint64_t kSaltSpeculative = 0x5350454355544956ULL;

/// Deterministic uniform draw in [0, 1) keyed on the plan seed, the stage
/// and task indices, the retry attempt, and a stream salt. Independent of
/// execution order and thread count.
double UnitDraw(uint64_t seed, uint64_t stage, uint64_t task, uint64_t attempt,
                uint64_t salt) {
  uint64_t z = Mix64(seed ^ Mix64(stage * 0x9e3779b97f4a7c15ULL + salt));
  z = Mix64(z ^ Mix64(task * 0x2545f4914f6cdd1dULL + attempt));
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

/// Strict parse of a MATRYOSHKA_REAL_BUDGET override: a plain decimal byte
/// count. Anything else — empty, a unit suffix ("4MB"), a sign, hex, or a
/// value past 2^64-1 — CHECK-fails naming the variable and value, so a
/// typo cannot silently leave the budget unbounded (0) or absurdly small.
std::size_t ParseBudgetEnv(const char* value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long bytes = std::strtoull(value, &end, 10);
  // A leading digit rules out "", signs and whitespace (all of which
  // strtoull would accept or turn into 0); the full-consumption check rules
  // out suffixes and hex.
  const bool valid = value[0] >= '0' && value[0] <= '9' && *end == '\0' &&
                     errno != ERANGE;
  MATRYOSHKA_CHECK(valid)
      << "MATRYOSHKA_REAL_BUDGET=\"" << value
      << "\" is not a plain decimal byte count (e.g. 4194304); unset it to "
         "use the configured budget.";
  return static_cast<std::size_t>(bytes);
}

/// Resolves the real scratch budget: an explicit nonzero config value wins;
/// otherwise MATRYOSHKA_REAL_BUDGET (bytes) can force a process-wide budget
/// so scripts/check.sh spill runs entire suites through the external paths.
/// Writes the resolved value back so config() reflects what runs.
std::size_t ResolveRealBudget(ClusterConfig* config) {
  if (config->real_memory_budget_bytes == 0) {
    if (const char* env = std::getenv("MATRYOSHKA_REAL_BUDGET")) {
      config->real_memory_budget_bytes = ParseBudgetEnv(env);
    }
  }
  return config->real_memory_budget_bytes;
}

/// Resolves the real-fault plan: an explicitly active config plan wins;
/// otherwise MATRYOSHKA_REAL_FAULTS ("<prob>[:<seed>]") can force a
/// process-wide recoverable-only fault storm so scripts/check.sh chaos runs
/// entire suites through the hardened IO paths. Writes the resolved plan
/// back so config() reflects what runs.
void ResolveRealFaults(ClusterConfig* config) {
  if (config->real_faults.active()) return;
  if (const char* env = std::getenv("MATRYOSHKA_REAL_FAULTS")) {
    const RealFaultPlan storm = ParseRealFaultStormEnv(env);
    if (storm.active()) config->real_faults = storm;
  }
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config), real_budget_(ResolveRealBudget(&config_)) {
  MATRYOSHKA_CHECK(config_.num_machines >= 1);
  MATRYOSHKA_CHECK(config_.cores_per_machine >= 1);
  // default_parallelism <= 0 means "auto": the paper's 3x total cores,
  // resolved here so it tracks whatever cluster shape was configured.
  if (config_.default_parallelism <= 0) {
    config_.default_parallelism = 3 * config_.total_cores();
  }
  if (config_.execute_parallel) {
    if (config_.shared_pool != nullptr) {
      // Externally owned (serving): per-request isolation with shared CPUs.
      pool_ptr_ = config_.shared_pool;
    } else {
      const std::size_t threads = config_.pool_threads > 0
                                      ? static_cast<std::size_t>(
                                            config_.pool_threads)
                                      : ThreadPool::DefaultThreads();
      pool_ = std::make_unique<ThreadPool>(threads);
      pool_ptr_ = pool_.get();
    }
  }
  driver_thread_ = std::this_thread::get_id();
  loss_times_ = config_.faults.machine_loss_times_s;
  std::sort(loss_times_.begin(), loss_times_.end());
  ResolveRealFaults(&config_);
  failpoints_.Arm(config_.real_faults, config_.real_io);
}

void Cluster::CheckDriverThread(const char* what) const {
  if (OnDriverThread()) return;
  MATRYOSHKA_CHECK(false)
      << what
      << " called off the cluster's driver thread. A Cluster and its Bags "
         "are single-threaded: all cost-model accounting and pending-chain "
         "forcing must run on the one thread that drives the program (the "
         "thread pool only executes per-index bodies handed over by "
         "ParallelFor). If this thread legitimately took over the program "
         "(e.g. a serving worker executing a request on a Cluster built "
         "elsewhere), call Cluster::BindDriverThread() on it before running "
         "any operator; otherwise move this call to the driver thread.";
}

Cluster::~Cluster() = default;

void Cluster::Fail(Status status) {
  MATRYOSHKA_DCHECK(!status.ok());
  if (status_.ok()) {
    MATRYOSHKA_LOG(kInfo) << "cluster run failed: " << status.ToString();
    if (trace_ != nullptr) {
      trace_->AddInstant("run-failed", status.ToString(),
                         metrics_.simulated_time_s);
    }
    status_ = std::move(status);
  }
}

void Cluster::Reset() {
  status_ = Status::OK();
  metrics_ = Metrics();
  // Re-arm the fault plan: lost machines come back and machine-loss events
  // fire again, so repeated runs on one cluster are bit-identical. The
  // recovery state (driver-retry counters, checkpoint tallies, the deadline
  // window) lives in metrics_ / attempt_start_s_ and re-arms with them.
  next_loss_event_ = 0;
  lost_machines_ = 0;
  attempt_start_s_ = 0.0;
  // Re-arm the real-fault epoch too: a fresh run draws the same injected
  // faults as the first one (bit-identical repeated runs).
  failpoints_.ResetEpoch();
  // Broadcast residency is a run property: a fresh run re-broadcasts (and
  // re-charges) everything, so repeated runs stay bit-identical.
  resident_broadcasts_.clear();
  resident_broadcast_keys_.clear();
  // A Reset is a run boundary for the trace too.
  if (trace_ != nullptr) trace_->StartRun();
}

void Cluster::CheckDeadline() {
  const double deadline = config_.recovery.run_deadline_s;
  if (deadline <= 0.0 || !ok()) return;
  const double elapsed = metrics_.simulated_time_s - attempt_start_s_;
  if (elapsed > deadline) {
    Fail(Status::DeadlineExceeded(
        "run attempt exceeded its deadline of " + std::to_string(deadline) +
        " s (" + std::to_string(elapsed) + " s elapsed)"));
  }
}

void Cluster::BeginDriverRetry(double backoff_s, const std::string& why) {
  if (ok()) return;
  status_ = Status::OK();
  metrics_.driver_retries += 1;
  const double t0 = metrics_.simulated_time_s;
  metrics_.simulated_time_s += backoff_s;
  metrics_.recovery_time_s += backoff_s;
  ArmRunDeadline();
  // Advance the real-fault epoch: under a bounded storm
  // (RealFaultPlan::storm_epochs) the retried attempt runs on healthy IO —
  // the "disk glitched, driver retried, run recovered" scenario, still a
  // pure function of (seed, epoch).
  failpoints_.BumpEpoch();
  if (trace_ != nullptr) {
    trace_->AddInstant("driver-retry", why, t0);
    trace_->AddDriverSpan(obs::Category::kRecovery, "driver-retry backoff",
                          t0, metrics_.simulated_time_s, 0.0);
  }
}

void Cluster::NotePlanFallback(const char* what) {
  if (!ok()) return;
  metrics_.plan_fallbacks += 1;
  if (trace_ != nullptr) {
    trace_->AddInstant("plan-fallback", what, metrics_.simulated_time_s);
  }
}

void Cluster::AccrueCheckpoint(double bytes, const char* label) {
  if (!ok()) return;
  const auto replicas =
      static_cast<double>(std::max(1, config_.recovery.checkpoint_replicas));
  metrics_.checkpoints_written += 1;
  metrics_.checkpoint_bytes += bytes * replicas;
  const double t0 = metrics_.simulated_time_s;
  metrics_.simulated_time_s += CheckpointWriteSeconds(bytes);
  if (trace_ != nullptr) {
    trace_->AddDriverSpan(obs::Category::kCheckpoint, label, t0,
                          metrics_.simulated_time_s, bytes * replicas);
  }
  CheckDeadline();
}

void Cluster::BeginJob(const std::string& label) {
  if (!ok()) return;
  metrics_.jobs += 1;
  const double t0 = metrics_.simulated_time_s;
  metrics_.simulated_time_s += config_.job_launch_overhead_s;
  if (trace_ != nullptr) {
    trace_->AddJob(label, t0, metrics_.simulated_time_s);
  }
  if (config_.faults.active()) {
    // Machine losses can fire between stages too; nothing is running, so
    // there is no recompute, only permanently fewer slots.
    ProcessMachineLossEvents(/*stage_cost_s=*/0.0, /*num_tasks=*/0,
                             /*lineage_depth=*/1);
  }
  CheckDeadline();
}

double Cluster::SimulateTaskAttempts(double base_cost_s, uint64_t stage_index,
                                     uint64_t task_index, uint64_t copy_salt,
                                     bool* exhausted, int* retries) {
  const FaultPlan& plan = config_.faults;
  double duration = 0.0;
  for (uint64_t attempt = 0;; ++attempt) {
    double cost = base_cost_s;
    if (plan.straggler_fraction > 0.0 &&
        UnitDraw(plan.seed, stage_index, task_index, attempt,
                 kSaltStraggler ^ copy_salt) < plan.straggler_fraction) {
      cost *= plan.straggler_slowdown;
    }
    const bool fails =
        plan.task_failure_prob > 0.0 &&
        UnitDraw(plan.seed, stage_index, task_index, attempt,
                 kSaltFailure ^ copy_salt) < plan.task_failure_prob;
    if (!fails) return duration + cost;
    // The failure is detected a deterministic fraction of the way through
    // the attempt: that work is wasted and charged as recovery.
    const double wasted =
        cost * UnitDraw(plan.seed, stage_index, task_index, attempt,
                        kSaltDetect ^ copy_salt);
    duration += wasted;
    metrics_.failed_tasks += 1;
    metrics_.recovery_time_s += wasted;
    if (static_cast<int>(attempt) >= plan.max_task_retries) {
      *exhausted = true;
      return duration;
    }
    const double backoff =
        plan.retry_backoff_s * std::ldexp(1.0, static_cast<int>(attempt));
    duration += backoff;
    metrics_.task_retries += 1;
    *retries += 1;
    metrics_.recovery_time_s += backoff;
  }
}

void Cluster::ProcessMachineLossEvents(double stage_cost_s, int64_t num_tasks,
                                       int lineage_depth) {
  while (next_loss_event_ < loss_times_.size() &&
         loss_times_[next_loss_event_] <= metrics_.simulated_time_s) {
    next_loss_event_ += 1;
    // The last machine never dies (the driver runs somewhere).
    if (lost_machines_ >= config_.num_machines - 1) continue;
    const int machines_before = available_machines();
    lost_machines_ += 1;
    metrics_.machines_lost += 1;
    if (trace_ != nullptr) {
      trace_->AddInstant(
          "machine-lost",
          std::to_string(available_machines()) + " machines left",
          metrics_.simulated_time_s);
    }
    if (stage_cost_s <= 0.0 && num_tasks <= 0) continue;
    // The lost machine held ~1/machines of the running stage's partitions;
    // regenerating them re-runs the upstream narrow chain (lineage_depth
    // stages' worth of work) for that share, spread over surviving slots.
    const double lost_fraction = 1.0 / static_cast<double>(machines_before);
    const int surviving_slots = available_machines() * config_.cores_per_machine;
    const double recompute =
        static_cast<double>(lineage_depth) * lost_fraction *
        (stage_cost_s +
         static_cast<double>(num_tasks) * config_.task_overhead_s) /
        static_cast<double>(surviving_slots);
    const double t0 = metrics_.simulated_time_s;
    metrics_.recovery_time_s += recompute;
    metrics_.simulated_time_s += recompute;
    if (trace_ != nullptr) {
      trace_->AddDriverSpan(obs::Category::kRecovery, "machine-loss recompute",
                            t0, metrics_.simulated_time_s, 0.0);
    }
  }
}

double Cluster::ScheduleStage(const std::vector<ScheduledTask>& sched,
                              int slots, double t0, int64_t trace_stage_id,
                              const StageContext& stage_ctx) {
  // Greedy list scheduling onto `slots` identical cores: each task goes to
  // the currently least-loaded slot; the stage takes the resulting makespan.
  // A min-heap over (load, slot) keeps this O(n log slots) and — since among
  // equal loads only the slot index differs — charges bit-identical time to
  // a heap over plain loads. Tasks smaller than the slot count finish in one
  // "wave" of max task cost — exactly the effect that starves the
  // outer-parallel workaround when there are fewer groups than cores.
  using Slot = std::pair<double, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> heap;
  const int used_slots =
      std::min<int64_t>(slots, static_cast<int64_t>(sched.size()));
  for (int i = 0; i < used_slots; ++i) heap.emplace(0.0, i);

  const bool tracing = trace_ != nullptr;
  const bool record_tasks =
      tracing &&
      trace_->ShouldRecordTasks(static_cast<int64_t>(sched.size()));
  // Per-slot aggregates for the critical-path decomposition (trace only).
  std::vector<double> slot_end, slot_compute, slot_overhead, slot_spill,
      slot_fault;
  if (tracing) {
    slot_end.assign(static_cast<std::size_t>(used_slots), 0.0);
    slot_compute.assign(static_cast<std::size_t>(used_slots), 0.0);
    slot_overhead.assign(static_cast<std::size_t>(used_slots), 0.0);
    slot_spill.assign(static_cast<std::size_t>(used_slots), 0.0);
    slot_fault.assign(static_cast<std::size_t>(used_slots), 0.0);
  }

  double makespan = 0.0;
  for (const ScheduledTask& task : sched) {
    auto [load, slot] = heap.top();
    heap.pop();
    load += config_.task_overhead_s + task.duration_s;
    makespan = std::max(makespan, load);
    heap.emplace(load, slot);
    if (tracing) {
      const double factor = stage_ctx.spill_factor;
      const double compute =
          factor > 1.0 ? task.base_cost_s / factor : task.base_cost_s;
      const std::size_t s = static_cast<std::size_t>(slot);
      const double begin = slot_end[s];
      slot_end[s] = load;
      slot_overhead[s] += config_.task_overhead_s;
      slot_compute[s] += compute;
      slot_spill[s] += task.base_cost_s - compute;
      slot_fault[s] += task.duration_s - task.base_cost_s;
      if (record_tasks) {
        obs::TaskSpan span;
        span.stage_id = trace_stage_id;
        span.task_index = task.task_index;
        span.slot = slot;
        span.begin_s = t0 + begin;
        span.end_s = t0 + load;
        span.overhead_s = config_.task_overhead_s;
        span.base_cost_s = task.base_cost_s;
        span.spill_s = task.base_cost_s - compute;
        span.retries = task.retries;
        span.speculative = task.speculative;
        trace_->AddTask(span);
      }
    }
  }

  if (tracing) {
    int64_t critical = -1;
    for (int i = 0; i < used_slots; ++i) {
      if (critical < 0 ||
          slot_end[static_cast<std::size_t>(i)] >
              slot_end[static_cast<std::size_t>(critical)]) {
        critical = i;
      }
    }
    const std::size_t c = static_cast<std::size_t>(std::max<int64_t>(0, critical));
    trace_->EndStage(trace_stage_id, t0 + makespan, critical,
                     critical >= 0 ? slot_compute[c] : 0.0,
                     critical >= 0 ? slot_overhead[c] : 0.0,
                     critical >= 0 ? slot_spill[c] : 0.0,
                     critical >= 0 ? slot_fault[c] : 0.0);
  }
  return makespan;
}

void Cluster::AccrueStage(const std::vector<double>& task_costs_s,
                          int lineage_depth, const StageContext& stage_ctx) {
  if (!ok()) return;
  const FaultPlan& plan = config_.faults;
  const std::size_t n = task_costs_s.size();

  if (!plan.active()) {
    metrics_.stages += 1;
    metrics_.tasks += static_cast<int64_t>(n);
    const double t0 = metrics_.simulated_time_s;
    int64_t stage_id = 0;
    if (trace_ != nullptr) {
      stage_id = trace_->AddStage(stage_ctx.label, metrics_.jobs, t0,
                                  static_cast<int64_t>(n), lineage_depth,
                                  stage_ctx.spill_factor);
    }
    std::vector<ScheduledTask> sched(n);
    for (std::size_t i = 0; i < n; ++i) {
      sched[i].duration_s = task_costs_s[i];
      sched[i].base_cost_s = task_costs_s[i];
      sched[i].task_index = static_cast<int64_t>(i);
    }
    metrics_.simulated_time_s +=
        ScheduleStage(sched, config_.total_cores(), t0, stage_id, stage_ctx);
    CheckDeadline();
    return;
  }

  metrics_.stages += 1;
  metrics_.tasks += static_cast<int64_t>(n);
  const uint64_t stage_index = static_cast<uint64_t>(metrics_.stages);

  // 1. Perturb every task's slot time by straggler and failure/retry draws.
  std::vector<ScheduledTask> sched(n);
  std::vector<char> exhausted(n, 0);
  double stage_cost_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    stage_cost_total += task_costs_s[i];
    bool ex = false;
    int retries = 0;
    sched[i].duration_s = SimulateTaskAttempts(
        task_costs_s[i], stage_index, static_cast<uint64_t>(i),
        /*copy_salt=*/0, &ex, &retries);
    sched[i].base_cost_s = task_costs_s[i];
    sched[i].task_index = static_cast<int64_t>(i);
    sched[i].retries = retries;
    exhausted[i] = ex ? 1 : 0;
  }

  // 2. Speculative execution: duplicate the slowest k% of the tasks and let
  // the earlier finisher win (a speculative copy can rescue a task whose
  // original exhausted its retries). Both copies occupy a slot until the
  // winner finishes.
  if (plan.speculative_execution && n > 0) {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(n) * plan.speculation_fraction);
    const std::size_t num_spec = std::max<std::size_t>(1, k);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    // Deterministic slowest-first order; index breaks duration ties.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (sched[a].duration_s != sched[b].duration_s) {
        return sched[a].duration_s > sched[b].duration_s;
      }
      return a < b;
    });
    for (std::size_t s = 0; s < std::min(num_spec, n); ++s) {
      const std::size_t i = order[s];
      bool spec_exhausted = false;
      int spec_retries = 0;
      const double spec_duration = SimulateTaskAttempts(
          task_costs_s[i], stage_index, static_cast<uint64_t>(i),
          kSaltSpeculative, &spec_exhausted, &spec_retries);
      const double winner = std::min(sched[i].duration_s, spec_duration);
      if (exhausted[i] && !spec_exhausted) exhausted[i] = 0;
      sched[i].duration_s = winner;
      ScheduledTask dup;  // the duplicate's slot occupancy
      dup.duration_s = winner;
      dup.base_cost_s = task_costs_s[i];
      dup.task_index = static_cast<int64_t>(i);
      dup.retries = spec_retries;
      dup.speculative = true;
      sched.push_back(dup);
      metrics_.speculative_launches += 1;
    }
  }

  // 3. Greedy list scheduling of the perturbed durations onto the slots of
  // the machines still alive.
  const double t0 = metrics_.simulated_time_s;
  int64_t stage_id = 0;
  if (trace_ != nullptr) {
    stage_id = trace_->AddStage(stage_ctx.label, metrics_.jobs, t0,
                                static_cast<int64_t>(n), lineage_depth,
                                stage_ctx.spill_factor);
  }
  const int slots = available_machines() * config_.cores_per_machine;
  metrics_.simulated_time_s +=
      ScheduleStage(sched, slots, t0, stage_id, stage_ctx);

  // 4. Machine-loss events reached by the clock fire against this stage.
  ProcessMachineLossEvents(stage_cost_total, static_cast<int64_t>(n),
                           lineage_depth);

  // 5. A task that exhausted its retries (and was not rescued by a
  // speculative copy) kills the whole run: transient failures are
  // recoverable at task level, running out of the retry budget fails the run
  // (the *driver* may still retry the whole program, see RunWithRecovery).
  for (std::size_t i = 0; i < n; ++i) {
    if (exhausted[i]) {
      Fail(Status::TaskFailed(
          "task " + std::to_string(i) + " of stage " +
          std::to_string(stage_index) + " failed after " +
          std::to_string(plan.max_task_retries + 1) + " attempts"));
      return;
    }
  }
  CheckDeadline();
}

void Cluster::AccrueShuffle(double bytes, const char* label) {
  if (!ok()) return;
  const double scaled = bytes;
  metrics_.shuffle_bytes += scaled;
  // With hash partitioning, a fraction (1 - 1/machines) of the data crosses
  // machine boundaries; every machine sends and receives its share in
  // parallel at the configured per-machine bandwidth. Degraded re-planning
  // spreads the shuffle over the machines still alive.
  const int machines = planning_machines();
  const double crossing =
      scaled * (1.0 - 1.0 / static_cast<double>(machines));
  const double per_machine = crossing / static_cast<double>(machines);
  const double t0 = metrics_.simulated_time_s;
  metrics_.simulated_time_s += per_machine / config_.network_bytes_per_s;
  if (trace_ != nullptr) {
    trace_->AddDriverSpan(obs::Category::kShuffle, label, t0,
                          metrics_.simulated_time_s, scaled);
  }
  CheckDeadline();
}

void Cluster::ChargeBroadcastTransfer(double bytes, const char* label) {
  // Collect to the driver, then torrent-style redistribution (every machine
  // both uploads and downloads chunks, so distribution is ~one transfer of
  // the full payload at per-machine bandwidth, not num_machines transfers).
  const double t0 = metrics_.simulated_time_s;
  metrics_.simulated_time_s += 2.0 * bytes / config_.network_bytes_per_s;
  if (trace_ != nullptr) {
    trace_->AddDriverSpan(obs::Category::kBroadcast, label, t0,
                          metrics_.simulated_time_s, bytes);
  }
  CheckDeadline();
}

void Cluster::AccrueBroadcast(double bytes, const char* label) {
  if (!ok()) return;
  const double scaled = bytes;
  // Accounting order predates the fit check on purpose: an attempted
  // broadcast counts its bytes and peak even when it OOMs.
  metrics_.broadcast_bytes += scaled;
  metrics_.peak_machine_bytes = std::max(metrics_.peak_machine_bytes, scaled);
  if (scaled > broadcast_memory_budget()) {
    Fail(Status::OutOfMemory(
        "broadcast data does not fit on a single machine"));
    return;
  }
  ChargeBroadcastTransfer(scaled, label);
}

Status Cluster::TryAccrueBroadcast(double bytes, const char* label) {
  if (!ok()) return status_;
  if (bytes > broadcast_memory_budget()) {
    // Typed and catchable: the caller decides whether to fall back to a
    // shuffle-based plan or Fail() the cluster. No bytes are accounted for
    // the broadcast that did not happen.
    return Status::OutOfMemory(
        std::string(label) +
        ": broadcast data does not fit on a single machine");
  }
  metrics_.broadcast_bytes += bytes;
  metrics_.peak_machine_bytes = std::max(metrics_.peak_machine_bytes, bytes);
  ChargeBroadcastTransfer(bytes, label);
  return Status::OK();
}

void Cluster::AccrueCollect(double bytes, const char* label) {
  if (!ok()) return;
  const double t0 = metrics_.simulated_time_s;
  metrics_.simulated_time_s += bytes / config_.network_bytes_per_s;
  if (trace_ != nullptr) {
    trace_->AddDriverSpan(obs::Category::kCollect, label, t0,
                          metrics_.simulated_time_s, bytes);
  }
  CheckDeadline();
}

void Cluster::CheckTaskMemory(double bytes, const std::string& what) {
  if (!ok()) return;
  const double scaled = bytes;
  metrics_.peak_task_bytes = std::max(metrics_.peak_task_bytes, scaled);
  if (scaled > config_.task_memory_budget()) {
    Fail(Status::OutOfMemory(what + ": task working set of " +
                             std::to_string(scaled / (1 << 20)) +
                             " MB exceeds the per-task budget of " +
                             std::to_string(config_.task_memory_budget() /
                                            (1 << 20)) +
                             " MB"));
  }
}

void Cluster::NoteRealSpill(const external::SpillStats& stats,
                            const char* label) {
  const bool faulted = stats.io_faults_injected != 0 || stats.io_retries != 0 ||
                       stats.checksum_failures != 0 ||
                       stats.inmemory_fallbacks != 0;
  if (stats.spill_events == 0 && !faulted) return;
  metrics_.real_spill_events += stats.spill_events;
  metrics_.real_spilled_bytes += stats.spilled_bytes;
  metrics_.real_spill_runs += stats.spill_runs;
  metrics_.real_io_faults_injected += stats.io_faults_injected;
  metrics_.real_io_retries += stats.io_retries;
  metrics_.checksum_failures += stats.checksum_failures;
  metrics_.inmemory_fallbacks += stats.inmemory_fallbacks;
  if (trace_ != nullptr) {
    // Zero-width span: real spilling happens on the hardware clock, which
    // the trace's simulated timeline must not (and does not) advance for.
    if (stats.spill_events != 0) {
      trace_->AddDriverSpan(obs::Category::kSpill, label,
                            metrics_.simulated_time_s,
                            metrics_.simulated_time_s, stats.spilled_bytes);
    }
    if (faulted) {
      trace_->AddInstant(
          "real-io-fault",
          std::string(label) + ": " +
              std::to_string(stats.io_faults_injected) + " injected, " +
              std::to_string(stats.io_retries) + " retries, " +
              std::to_string(stats.checksum_failures) + " checksum, " +
              std::to_string(stats.inmemory_fallbacks) + " fallbacks",
          metrics_.simulated_time_s);
    }
  }
}

void Cluster::NoteNativeIteration(const char* label, int64_t iteration) {
  if (!ok()) return;
  metrics_.native_iterations += 1;
  if (trace_ != nullptr) {
    // Zero-width span: native iteration restructures real execution, never
    // the simulated timeline.
    trace_->AddDriverSpan(obs::Category::kIterate,
                          (std::string(label) + "[iter " +
                           std::to_string(iteration) + "]")
                              .c_str(),
                          metrics_.simulated_time_s, metrics_.simulated_time_s,
                          0.0);
  }
}

void Cluster::NoteConvergenceCheckInEngine() {
  if (!ok()) return;
  metrics_.convergence_checks_in_engine += 1;
}

void Cluster::NoteBroadcastResident(std::shared_ptr<const void> payload) {
  if (payload == nullptr) return;
  if (!resident_broadcast_keys_.insert(payload.get()).second) return;
  resident_broadcasts_.push_back(std::move(payload));
}

void Cluster::NoteHoistedBroadcastReuse() {
  if (!ok()) return;
  metrics_.hoisted_broadcast_reuses += 1;
}

double Cluster::SpillFactor(double per_machine_bytes) {
  if (!ok()) return 1.0;
  const double scaled = per_machine_bytes * config_.memory_object_overhead;
  metrics_.peak_machine_bytes = std::max(metrics_.peak_machine_bytes, scaled);
  const double budget =
      config_.memory_per_machine_bytes * config_.execution_memory_fraction;
  if (scaled <= budget) return 1.0;
  const double excess_fraction = (scaled - budget) / scaled;
  metrics_.spill_events += 1;
  metrics_.spilled_bytes += scaled - budget;
  if (trace_ != nullptr) {
    trace_->AddInstant(
        "spill",
        std::to_string((scaled - budget) / (1 << 20)) + " MB over budget",
        metrics_.simulated_time_s);
  }
  return 1.0 + excess_fraction * (config_.spill_penalty - 1.0);
}

}  // namespace matryoshka::engine
