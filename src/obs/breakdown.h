#ifndef MATRYOSHKA_OBS_BREAKDOWN_H_
#define MATRYOSHKA_OBS_BREAKDOWN_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace_recorder.h"

/// Per-run breakdown report: where the simulated seconds went. Answers the
/// paper's Sec. 9 questions quantitatively — how much of a run is job-launch
/// overhead (the inner-parallel killer), task overhead, compute, spill,
/// network, and fault recovery — and which stages formed the critical path.
namespace matryoshka::obs {

/// Decomposition of one run's simulated time into exclusive buckets. The
/// driver clock is serial in this engine, so the buckets sum to the run's
/// simulated_time_s (up to floating-point rounding of the per-task
/// decompositions).
struct Breakdown {
  double job_launch_s = 0.0;
  /// Fault-free UDF compute on the critical slot of every stage.
  double compute_s = 0.0;
  /// Per-task scheduling/launch/teardown on critical slots.
  double task_overhead_s = 0.0;
  /// Spill-inflation share of critical-slot compute.
  double spill_s = 0.0;
  double shuffle_s = 0.0;
  double broadcast_s = 0.0;
  /// Driver-side collect transfers.
  double collect_s = 0.0;
  /// Straggler slowdown, wasted failed attempts, retry backoff on critical
  /// slots, machine-loss lineage recompute, plus driver-retry backoff.
  double recovery_s = 0.0;
  /// Replicated checkpoint writes (explicit and auto-checkpoints).
  double checkpoint_s = 0.0;

  double total() const {
    return job_launch_s + compute_s + task_overhead_s + spill_s + shuffle_s +
           broadcast_s + collect_s + recovery_s + checkpoint_s;
  }
};

/// One link of the critical-path stage chain: in this serial-driver model
/// every stage gates the run, so the chain is the stages in time order; the
/// entries carry each stage's makespan and its share of the run.
struct CriticalStage {
  int64_t stage_id = 0;
  std::string label;
  double begin_s = 0.0;
  double duration_s = 0.0;
  int64_t num_tasks = 0;
  int64_t critical_slot = -1;
};

Breakdown ComputeBreakdown(const RunTrace& run);

/// The stage chain in time order (see CriticalStage).
std::vector<CriticalStage> CriticalPath(const RunTrace& run);

/// The breakdown as a JSON object (used by --metrics-json and embedded in
/// the Chrome trace export).
void WriteBreakdownJson(const Breakdown& breakdown, std::ostream& os);

}  // namespace matryoshka::obs

#endif  // MATRYOSHKA_OBS_BREAKDOWN_H_
