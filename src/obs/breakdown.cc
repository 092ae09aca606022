#include "obs/breakdown.h"

#include "obs/json_writer.h"

namespace matryoshka::obs {

Breakdown ComputeBreakdown(const RunTrace& run) {
  Breakdown b;
  for (const JobSpan& job : run.jobs) {
    b.job_launch_s += job.end_s - job.begin_s;
  }
  for (const StageSpan& stage : run.stages) {
    b.compute_s += stage.compute_s;
    b.task_overhead_s += stage.overhead_s;
    b.spill_s += stage.spill_s;
    b.recovery_s += stage.fault_s;
  }
  for (const DriverSpan& span : run.driver) {
    const double dt = span.end_s - span.begin_s;
    switch (span.category) {
      case Category::kShuffle:
        b.shuffle_s += dt;
        break;
      case Category::kBroadcast:
        b.broadcast_s += dt;
        break;
      case Category::kCollect:
        b.collect_s += dt;
        break;
      case Category::kRecovery:
        b.recovery_s += dt;
        break;
      case Category::kCheckpoint:
        b.checkpoint_s += dt;
        break;
      default:
        // Job launch arrives via JobSpan, compute via StageSpan; any other
        // driver interval would be a new category — count it as compute so
        // the total still covers the clock.
        b.compute_s += dt;
        break;
    }
  }
  return b;
}

std::vector<CriticalStage> CriticalPath(const RunTrace& run) {
  std::vector<CriticalStage> chain;
  chain.reserve(run.stages.size());
  for (const StageSpan& stage : run.stages) {
    CriticalStage link;
    link.stage_id = stage.id;
    link.label = stage.label;
    link.begin_s = stage.begin_s;
    link.duration_s = stage.end_s - stage.begin_s;
    link.num_tasks = stage.num_tasks;
    link.critical_slot = stage.critical_slot;
    chain.push_back(std::move(link));
  }
  return chain;
}

void WriteBreakdownJson(const Breakdown& b, std::ostream& os) {
  os << "{\"job_launch_s\":" << JsonDouble(b.job_launch_s)
     << ",\"compute_s\":" << JsonDouble(b.compute_s)
     << ",\"task_overhead_s\":" << JsonDouble(b.task_overhead_s)
     << ",\"spill_s\":" << JsonDouble(b.spill_s)
     << ",\"shuffle_s\":" << JsonDouble(b.shuffle_s)
     << ",\"broadcast_s\":" << JsonDouble(b.broadcast_s)
     << ",\"collect_s\":" << JsonDouble(b.collect_s)
     << ",\"recovery_s\":" << JsonDouble(b.recovery_s)
     << ",\"checkpoint_s\":" << JsonDouble(b.checkpoint_s)
     << ",\"total_s\":" << JsonDouble(b.total()) << "}";
}

}  // namespace matryoshka::obs
