#ifndef MATRYOSHKA_ENGINE_ITERATE_H_
#define MATRYOSHKA_ENGINE_ITERATE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/ops.h"
#include "engine/recovery.h"

/// Native iteration: the engine-level loop construct that compiles driver
/// loops into the dataflow (cf. Labyrinth / Flare in PAPERS.md).
///
/// A classic driver loop pays three per-iteration taxes: a driver action
/// round-trip to evaluate the convergence predicate, the materialization of
/// the filtered intermediate that only existed to be counted, and the
/// re-broadcast of loop-invariant payloads. `Iterate` runs the whole loop
/// driver-side but *in-engine*: the convergence predicate is evaluated by
/// fused operators that never build the throwaway intermediates
/// (FilterMapCount / AnyMatch below), loop-invariant broadcasts are served
/// from the cluster's residency registry (join.h / closures.h), and every
/// iteration is delimited by a zero-width `kIterate` trace span.
///
/// The native iteration contract (see DESIGN.md):
///  - The convergence helpers change *how* the check executes, never *what
///    it charges*: each replays the exact simulated charge sequence of the
///    op sequence it replaces — scan stages, auto-checkpoint probes,
///    `BeginJob("count")` / `BeginJob("notEmpty")` — so outputs,
///    key_partitions, lineage, and the full Metrics equal that sequence's
///    for any pool size and fault regime (ConvergenceReplayTest). The wins
///    are real-execution wins.
///  - The counters `native_iterations`, `hoisted_broadcast_reuses`, and
///    `convergence_checks_in_engine` are real-execution diagnostics
///    (precedent: `real_spill_*`); no simulated charge depends on them.
namespace matryoshka::engine {

struct IterateOptions {
  /// Iteration cap: reaching it without converging invokes `exhausted`.
  int64_t max_iterations = 0;
  /// Label of the per-iteration kIterate trace spans.
  const char* label = "iterate";
  /// Called with the number of completed iterations when the cap is reached
  /// before convergence. A non-OK return fails the cluster with that status;
  /// an OK return breaks out quietly (connected components treats a
  /// zero-iteration cap as vacuous convergence). Defaults to an Internal
  /// error naming the loop.
  std::function<Status(int64_t)> exhausted;
};

namespace internal {

/// Built when IterateOptions::exhausted is unset (iterate.cc).
Status DefaultIterationExhausted(const char* label, int64_t iterations);

/// Sample cap of the phantom byte estimate; must equal EstimateBagBytes'
/// default `sample_per_partition` for the probe replication to be exact.
inline constexpr std::size_t kIterateByteSampleCap = 64;

/// ChargeScanStage on a *phantom* bag known only by metadata: per-partition
/// synthetic sizes, scale, lineage. Identical arithmetic to
/// internal::ChargeScanStage (ops.h) on a bag with these tracked counts.
inline void ChargeScanStageMeta(Cluster* c,
                                const std::vector<std::size_t>& sizes,
                                double scale, int lineage_depth, double weight,
                                const char* label) {
  if (!c->ok()) return;
  int64_t n = 0;
  for (const std::size_t s : sizes) n += static_cast<int64_t>(s);
  c->mutable_metrics().elements_processed +=
      static_cast<int64_t>(static_cast<double>(n) * scale);
  std::vector<double> costs;
  costs.reserve(sizes.size());
  for (const std::size_t s : sizes) {
    costs.push_back(c->ComputeCost(static_cast<double>(s) * scale, weight));
  }
  c->AccrueStage(costs, lineage_depth, StageContext{label});
}

/// EstimateBagBytes on a phantom bag: `samples[p]` holds the first
/// min(counts[p], kIterateByteSampleCap) elements of partition p in
/// partition order — exactly the elements the estimator would sample on the
/// materialized bag, so the extrapolation is bit-identical.
template <typename T>
double EstimateBytesFromSamples(const std::vector<std::vector<T>>& samples,
                                const std::vector<std::size_t>& counts) {
  double total = 0.0;
  for (std::size_t p = 0; p < counts.size(); ++p) {
    if (counts[p] == 0) continue;
    const std::size_t sample = samples[p].size();
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < sample; ++i) bytes += EstimateSize(samples[p][i]);
    total += static_cast<double>(bytes) / static_cast<double>(sample) *
             static_cast<double>(counts[p]);
  }
  return total;
}

/// MaybeAutoCheckpoint (recovery.h) on a phantom filtered bag the native
/// path never materializes. Same early-outs, same AutoCheckpointFires
/// comparison, same AccrueCheckpoint charge when it fires. Returns the
/// resulting lineage depth (1 after a fired checkpoint); the caller checks
/// c->ok() afterwards — a failed checkpoint write poisons the run exactly
/// like a real Checkpoint would.
template <typename T>
int ProbePhantomFiltered(Cluster* c, const std::vector<std::size_t>& counts,
                         const std::vector<std::vector<T>>& samples,
                         double scale, int lineage_depth) {
  const RecoveryPolicy& policy = c->config().recovery;
  if (!policy.auto_checkpoint || !c->ok()) return lineage_depth;
  if (lineage_depth < policy.min_checkpoint_lineage) return lineage_depth;
  int64_t n = 0;
  for (const std::size_t s : counts) n += static_cast<int64_t>(s);
  const double real_size = static_cast<double>(n) * scale;
  const double real_bytes = EstimateBytesFromSamples(samples, counts) * scale;
  if (!AutoCheckpointFires(*c, lineage_depth, real_size, real_bytes)) {
    return lineage_depth;
  }
  c->AccrueCheckpoint(real_bytes, "auto-checkpoint");
  return 1;
}

}  // namespace internal

/// Result of FilterMapCount: the `Map(Filter(bag, sel), proj)` output and
/// its count, produced by one fused pass with the count answered in-engine.
template <typename U>
struct FilterCountResult {
  Bag<U> mapped;
  int64_t count = 0;
};

/// The convergence step of the lifted do-while (control_flow.h), replacing
///   cont = Map(Filter(bag, sel), proj);  continuing = Count(cont);
/// ONE fused pass produces the mapped output directly — the filtered
/// intermediate is never materialized and the count is a tally of the same
/// pass, not a third scan — while every simulated charge of the three-op
/// sequence (filter scan, both auto-checkpoint probes, map scan, count job
/// + scan) is replayed exactly.
template <typename T, typename Sel, typename Proj>
auto FilterMapCount(const Bag<T>& bag, Sel sel, Proj proj) {
  using U = std::decay_t<decltype(proj(std::declval<const T&>()))>;
  Cluster* c = bag.cluster();
  if (!c->ok()) return FilterCountResult<U>{Bag<U>(c), 0};
  // Filter's scan, charged from metadata before any UDF runs (Filter
  // charges at composition, before its predicate ever runs; a throwing
  // predicate must observe the same clock).
  internal::ChargeScanStage(bag, 1.0, "filter");
  if (!c->ok()) return FilterCountResult<U>{Bag<U>(c), 0};
  const auto& parts = bag.partitions();
  typename Bag<U>::Partitions mapped(parts.size());
  std::vector<std::size_t> counts(parts.size(), 0);
  // First matches per partition, kept only to feed the phantom probe's byte
  // estimator with exactly the elements it would sample on Filter's output.
  std::vector<std::vector<T>> samples(parts.size());
  internal::GuardedParallelFor(c, parts.size(), [&](std::size_t i) {
    const auto& part = parts[i];
    auto& out = mapped[i];
    auto& sample = samples[i];
    out.reserve(part.size());
    for (const T& x : part) {
      if (!sel(x)) continue;
      if (sample.size() < internal::kIterateByteSampleCap) sample.push_back(x);
      out.push_back(proj(x));
    }
    counts[i] = out.size();
  });
  if (!c->ok()) return FilterCountResult<U>{Bag<U>(c), 0};
  // The probe Filter would run on its output.
  const int lineage_f = internal::ProbePhantomFiltered(
      c, counts, samples, bag.scale(), bag.lineage_depth() + 1);
  if (!c->ok()) return FilterCountResult<U>{Bag<U>(c), 0};
  // Map's scan over the filtered cardinalities, then the probe Map would
  // run — the mapped bag is real, so this one is the real probe.
  internal::ChargeScanStageMeta(c, counts, bag.scale(), lineage_f, 1.0, "map");
  Bag<U> out = internal::MaybeAutoCheckpoint(
      Bag<U>(c, std::move(mapped), bag.scale(), 0, lineage_f + 1));
  int64_t total = 0;
  for (const std::size_t s : counts) total += static_cast<int64_t>(s);
  if (!c->ok()) return FilterCountResult<U>{std::move(out), 0};
  // The count action, answered in-engine from the pass's tally. Its job
  // launch and scan stay charged: the simulated clock must not move.
  c->BeginJob("count");
  internal::ChargeScanStageMeta(c, counts, bag.scale(), out.lineage_depth(),
                                0.25, "count");
  c->NoteConvergenceCheckInEngine();
  return FilterCountResult<U>{std::move(out), total};
}

/// The convergence step of the connected-components style loop, replacing
///   changed = NotEmpty(Filter(bag, pred));
/// One counting pass — the filtered bag is never built — with the filter
/// scan, its probe, and the notEmpty job + scan replayed exactly.
template <typename T, typename P>
bool AnyMatch(const Bag<T>& bag, P pred) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return false;
  internal::ChargeScanStage(bag, 1.0, "filter");
  if (!c->ok()) return false;
  const auto& parts = bag.partitions();
  std::vector<std::size_t> counts(parts.size(), 0);
  std::vector<std::vector<T>> samples(parts.size());
  internal::GuardedParallelFor(c, parts.size(), [&](std::size_t i) {
    std::size_t m = 0;
    auto& sample = samples[i];
    for (const T& x : parts[i]) {
      if (!pred(x)) continue;
      ++m;
      if (sample.size() < internal::kIterateByteSampleCap) sample.push_back(x);
    }
    counts[i] = m;
  });
  if (!c->ok()) return false;
  const int lineage_f = internal::ProbePhantomFiltered(
      c, counts, samples, bag.scale(), bag.lineage_depth() + 1);
  int64_t total = 0;
  for (const std::size_t s : counts) total += static_cast<int64_t>(s);
  if (!c->ok()) return false;
  c->BeginJob("notEmpty");
  internal::ChargeScanStageMeta(c, counts, bag.scale(), lineage_f, 0.05,
                                "notEmpty");
  c->NoteConvergenceCheckInEngine();
  return total > 0;
}

/// Runs `body` until `converged` or the iteration cap, as one in-engine
/// loop. `body(state, i)` produces the next state; `converged(&state, i)`
/// evaluates the exit predicate after the body — taking the state by
/// pointer so it can fold the convergence artifacts (e.g. the narrowed
/// loop context) back into it. Each iteration counts into
/// native_iterations and records a zero-width kIterate span.
///
/// Failure semantics match a driver loop over sticky-status operators: a
/// failed cluster breaks out at the next boundary with the state the body
/// last returned (whose bags are empty past the failure point).
template <typename State, typename Body, typename Converged>
State Iterate(Cluster* c, State state, Body body, Converged converged,
              const IterateOptions& options) {
  for (int64_t i = 0;; ++i) {
    if (!c->ok()) break;
    if (i >= options.max_iterations) {
      Status st = options.exhausted
                      ? options.exhausted(i)
                      : internal::DefaultIterationExhausted(options.label, i);
      if (!st.ok()) c->Fail(std::move(st));
      break;
    }
    c->NoteNativeIteration(options.label, i);
    state = body(std::move(state), i);
    if (!c->ok()) break;
    if (converged(&state, i)) break;
  }
  return state;
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_ITERATE_H_
