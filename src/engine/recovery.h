#ifndef MATRYOSHKA_ENGINE_RECOVERY_H_
#define MATRYOSHKA_ENGINE_RECOVERY_H_

#include <functional>
#include <utility>

#include "engine/bag.h"
#include "engine/cluster.h"

/// Driver-side recovery for the simulated cluster (the policy layer over
/// PR 1's fault *injection*):
///
///  - Checkpoint(): writes a bag to the simulated replicated store and
///    truncates its lineage to depth 1, so machine-loss recompute re-reads
///    the checkpoint instead of re-running the narrow chain.
///  - An auto-checkpoint policy (RecoveryPolicy::auto_checkpoint) that the
///    narrow operators consult on their outputs, bounding lineage depth by
///    the checkpoint interval whenever the expected loss recompute exceeds
///    the checkpoint write cost.
///  - RunWithRecovery(): a driver-level retry loop that re-runs a program
///    after retryable failures (task-retry exhaustion, blown deadlines)
///    with escalating backoff, instead of letting the sticky status poison
///    the whole program.
///
/// Everything is deterministic on the simulated clock, and a default
/// RecoveryPolicy leaves the engine byte-identical to one without this
/// header (locked down by engine_recovery_test).
namespace matryoshka::engine {

/// True when the driver may re-run a failed program: transient task-retry
/// exhaustion, blown deadlines, and real IO faults (EIO through the retry
/// budget, spill-run corruption — the disk may behave on a re-run, and
/// under an injected storm the retry bumps the fault epoch) are retryable;
/// the deterministic memory model's OOM and programming errors are not
/// (re-running reproduces them).
inline bool RetryableForDriver(const Status& status) {
  return status.IsTaskFailed() || status.IsDeadlineExceeded() ||
         status.IsIOError() || status.IsDataCorruption();
}

/// Writes `bag` to the simulated replicated store and returns the same data
/// with its lineage truncated to depth 1. Charges the replicated write
/// (RecoveryPolicy::checkpoint_replicas copies at checkpoint_bytes_per_s per
/// live machine) to the clock and tallies checkpoints_written /
/// checkpoint_bytes; the trace records a kCheckpoint driver span. The data
/// itself is untouched — a Bag is already materialized in this engine, the
/// checkpoint buys the *lineage truncation* under the fault model.
template <typename T>
Bag<T> Checkpoint(const Bag<T>& bag, const char* label = "checkpoint") {
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<T>(c);
  // Checkpointing writes real data: a pending fused chain is a forcing
  // point here (charge-free — composition already paid the scan stages).
  bag.Force();
  c->AccrueCheckpoint(RealBagBytes(bag), label);
  if (!c->ok()) return Bag<T>(c);
  return bag.WithLineageDepth(1);
}

namespace internal {

/// The arithmetic core of the auto-checkpoint decision, on bag *metadata*
/// (lineage depth, real element count, real byte estimate). Factored out so
/// the native-iteration operators (iterate.h), which track metadata for bags
/// they never materialize per-op, reach the exact comparison
/// MaybeAutoCheckpoint runs — same expression, same rounding, same verdict.
/// Fires only when the recompute strictly exceeds the write: an empty bag
/// (0 recompute, 0 write) is never "checkpointed" for free. Callers are
/// responsible for the policy/lineage early-outs.
inline bool AutoCheckpointFires(const Cluster& c, int lineage_depth,
                               double real_size, double real_bytes) {
  const double lost_share = 1.0 / static_cast<double>(c.available_machines());
  const double chain_recompute = static_cast<double>(lineage_depth) *
                                 lost_share * c.ComputeCost(real_size, 1.0) /
                                 static_cast<double>(c.available_cores());
  return chain_recompute > c.CheckpointWriteSeconds(real_bytes);
}

/// Cost-based auto-checkpoint hook: narrow operators pass their output
/// through this. With auto_checkpoint off (the default) the bag flows
/// through untouched at zero cost; with it on, a bag whose lineage has
/// reached min_checkpoint_lineage is checkpointed when the expected
/// machine-loss recompute of its chain (depth x the lost machine's share of
/// the bag's compute, spread over the surviving slots) exceeds the
/// checkpoint write cost — so loss recompute is bounded by the interval.
///
/// Pending fused bags flow through without materializing until the probe
/// actually needs data: the policy/lineage early-outs and the RealSize of a
/// size-preserving chain answer from metadata, while the byte estimate (and
/// a triggered Checkpoint) force the chain — producing exactly the values
/// of its materialized output, so the decision and every charge do not
/// depend on where the fused chain is cut.
template <typename T>
Bag<T> MaybeAutoCheckpoint(Bag<T> bag) {
  Cluster* c = bag.cluster();
  const RecoveryPolicy& policy = c->config().recovery;
  if (!policy.auto_checkpoint || !c->ok()) return bag;
  if (bag.lineage_depth() < policy.min_checkpoint_lineage) return bag;
  if (!AutoCheckpointFires(*c, bag.lineage_depth(), bag.RealSize(),
                           RealBagBytes(bag))) {
    return bag;
  }
  return Checkpoint(bag, "auto-checkpoint");
}

Status RunWithRecoveryImpl(Cluster* cluster,
                           const std::function<void(int)>& body,
                           const char* label);

}  // namespace internal

/// Driver-level retry loop: runs `body(attempt)` and, when the cluster ends
/// in a driver-retryable failure (RetryableForDriver), clears the sticky
/// status, charges an escalating backoff (driver_backoff_s * 2^attempt), and
/// re-runs the body — up to RecoveryPolicy::max_driver_retries times. The
/// body should restart from its last checkpoint (re-building inputs is
/// correct too, just slower). Arms the per-attempt deadline window on entry.
///
/// Deterministic: the fault draws of a re-run differ from the failed
/// attempt's because stage indices keep advancing, exactly as a re-submitted
/// job on a real cluster sees fresh scheduling randomness — but the whole
/// retried execution is still a pure function of (program, config, seed).
///
/// Returns the final status: OK as soon as an attempt completes, otherwise
/// the last failure (also left sticky on the cluster).
template <typename Body>
Status RunWithRecovery(Cluster* cluster, Body&& body,
                       const char* label = "program") {
  return internal::RunWithRecoveryImpl(
      cluster, std::function<void(int)>(std::forward<Body>(body)), label);
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_RECOVERY_H_
