#ifndef MATRYOSHKA_ENGINE_BAG_H_
#define MATRYOSHKA_ENGINE_BAG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sizing.h"
#include "common/thread_pool.h"
#include "engine/cluster.h"

namespace matryoshka::engine {

/// An immutable, partitioned, unordered collection — the engine's dataset
/// abstraction (the paper's Bag; an RDD in Spark terms).
///
/// A Bag is a cheap handle: copies share the underlying partitions. All
/// operators live in ops.h as free functions; a Bag only carries data, its
/// partitioning, its Cluster, and its `scale`.
///
/// `scale` is the cost-model magnification: how many "real" elements each
/// synthetic element stands for. Freshly loaded data gets
/// ClusterConfig::data_scale; element-wise operators propagate the scale;
/// operators that collapse to a fixed key space (per-tag aggregates, the
/// bags representing InnerScalars) produce scale-1 bags because their
/// synthetic cardinality equals the real one. All time/network/memory
/// charges multiply element counts and byte estimates by the bag's scale.
///
/// A Bag may instead hold a *pending pipeline*: a shared handle to an
/// upstream materialized bag plus the composed per-element transform chain
/// of every narrow operator applied since. Narrow ops on a pending bag
/// compose instead of executing; `Force()` (called by every wide operator,
/// every action, Checkpoint, and automatically by `partitions()`)
/// materializes the chain in one fused pass per partition. Pending bags
/// carry tracked per-partition cardinalities so the cost model can be
/// charged at composition time without materializing (see DESIGN.md, "The
/// fusion contract").
template <typename T>
class Bag {
 public:
  using Element = T;
  using Partitions = std::vector<std::vector<T>>;
  /// Consumes one element of a pending chain's per-partition output stream.
  using Sink = std::function<void(T&&)>;
  /// Streams partition `p` of a pending chain into `emit`. The one erased
  /// hop of the fused pipeline: a narrow op applied to a plain `Bag<T>`
  /// handle whose concrete chain type was sliced away roots its new chain
  /// here (fused_feed.h SourceFeed), paying one indirect call per element.
  using Feed = std::function<void(std::size_t p, const Sink& emit)>;
  /// Materializes partition `p` of a pending chain directly into `dst`:
  /// the statically typed chain (fused_feed.h) runs as one monomorphic loop
  /// behind this single erased call per partition. Force() drives it.
  using Run = std::function<void(std::size_t p, std::vector<T>& dst)>;

  /// An empty bag with zero partitions (the result of operators that ran
  /// after the cluster entered a failed state).
  explicit Bag(Cluster* cluster)
      : cluster_(cluster), parts_(std::make_shared<const Partitions>()) {}

  Bag(Cluster* cluster, Partitions parts, double scale = 1.0,
      int64_t key_partitions = 0, int lineage_depth = 1)
      : cluster_(cluster),
        parts_(std::make_shared<const Partitions>(std::move(parts))),
        scale_(scale),
        key_partitions_(key_partitions),
        lineage_depth_(lineage_depth) {}

  /// A deferred bag: `run` materializes each output partition by pulling
  /// from a captured upstream source through the composed transform chain,
  /// and `feed` streams the same elements to a downstream chain rooted at
  /// this bag. `counts` tracks the per-partition output cardinality — exact
  /// when `counts_exact` (size-preserving chain), an upper bound when only
  /// `counts_bounded` (filter-terminated chain), partition count only
  /// otherwise. `chain_ops` is the number of composed narrow ops (the
  /// fusion depth cap compares against it). Built by ops.h; the cost model
  /// was already charged by the composing operator.
  static Bag<T> Deferred(Cluster* cluster, Feed feed, Run run,
                         std::vector<std::size_t> counts, bool counts_exact,
                         bool counts_bounded, int chain_ops, double scale,
                         int64_t key_partitions, int lineage_depth) {
    Bag<T> out(cluster);
    out.parts_.reset();
    auto pending = std::make_shared<PendingState>();
    pending->feed = std::move(feed);
    pending->run = std::move(run);
    pending->counts = std::move(counts);
    pending->exact = counts_exact;
    pending->bounded = counts_bounded;
    pending->chain_ops = chain_ops;
    out.pending_ = std::move(pending);
    out.scale_ = scale;
    out.key_partitions_ = key_partitions;
    out.lineage_depth_ = lineage_depth;
    return out;
  }

  Cluster* cluster() const { return cluster_; }

  /// True while this bag is an unmaterialized fused chain.
  bool pending() const { return pending_ != nullptr; }

  /// Composed narrow ops in the pending chain (0 once materialized).
  int pending_chain_ops() const {
    return pending_ != nullptr ? pending_->chain_ops : 0;
  }

  /// True when the tracked per-partition cardinalities are exact (always
  /// true for materialized bags). A pending chain with inexact counts is a
  /// forced boundary: the next narrow op materializes it before composing.
  bool counts_exact() const {
    return pending_ == nullptr || pending_->exact;
  }

  /// The pending chain's stream; only valid while pending().
  const Feed& pending_feed() const {
    MATRYOSHKA_DCHECK(pending_ != nullptr);
    return pending_->feed;
  }

  /// True when this handle is still pending but a sibling handle already
  /// forced the shared chain state: the memoized result exists and Force()
  /// on this handle is a free pointer flip. Composing consumers check this
  /// to reuse the shared materialization instead of re-running the chain.
  bool pending_materialized() const {
    return pending_ != nullptr && pending_->materialized != nullptr;
  }

  /// Materializes any pending chain in ONE fused pass per partition: the
  /// whole composed transform runs per element and the output vector is
  /// reserved exactly for size-preserving chains (the tracked counts play
  /// the role of parallel_shuffle.h's counting pre-pass) or to the input
  /// upper bound for filter-terminated chains. Memoized in the chain state
  /// shared across Bag copies, so sibling handles force at most once. No-op
  /// on materialized bags. Charges NOTHING: every composed op already
  /// charged its scan stage, lineage, and auto-checkpoint probe at
  /// composition time. Must be called from the driver thread (it runs the
  /// pass on the cluster pool itself, and the chain memoization is not
  /// thread-safe); a violation CHECK-fails with an actionable message
  /// instead of racing (Cluster::CheckDriverThread).
  void Force() const {
    if (pending_ == nullptr) return;
    cluster_->CheckDriverThread("Bag::Force()");
    if (pending_->materialized == nullptr) {
      const PendingState& chain = *pending_;
      auto out = std::make_shared<Partitions>(chain.counts.size());
      // Guarded: a throwing fused UDF fails this program with a typed
      // status (the partially built output is void behind the sticky
      // failure) instead of terminating the process.
      internal::GuardedParallelFor(cluster_, out->size(), [&](std::size_t i) {
        std::vector<T>& dst = (*out)[i];
        if (chain.bounded) dst.reserve(chain.counts[i]);
        chain.run(i, dst);
      });
      pending_->materialized = std::move(out);
    }
    parts_ = pending_->materialized;
    pending_.reset();
  }

  /// Materialized partitions; forces a pending chain first.
  const Partitions& partitions() const {
    Force();
    return *parts_;
  }

  /// The materialized partitions as a shared handle (forces). Lets fused
  /// feeds keep the upstream data alive without copying it.
  std::shared_ptr<const Partitions> shared_partitions() const {
    Force();
    return parts_;
  }

  int64_t num_partitions() const {
    return pending_ != nullptr ? static_cast<int64_t>(pending_->counts.size())
                               : static_cast<int64_t>(parts_->size());
  }

  /// Per-partition synthetic cardinalities. Pending chains with exact
  /// tracked counts answer from metadata without forcing (this is what lets
  /// composition charge the cost model without executing); inexact chains
  /// force first.
  std::vector<std::size_t> PartitionSizes() const {
    if (pending_ != nullptr && pending_->exact) return pending_->counts;
    const Partitions& parts = partitions();
    std::vector<std::size_t> sizes;
    sizes.reserve(parts.size());
    for (const auto& p : parts) sizes.push_back(p.size());
    return sizes;
  }

  /// Real elements represented by one synthetic element (see class comment).
  double scale() const { return scale_; }

  /// Non-zero iff this bag of pairs is hash-partitioned on `.first` into
  /// exactly this many partitions (the engine's Partitioner metadata, like
  /// Spark's). Keyed wide operators whose partition count matches skip the
  /// network shuffle; mapValues/filter-style operators preserve it, while
  /// key-changing maps clear it.
  int64_t key_partitions() const { return key_partitions_; }

  /// Number of narrow stages that must re-run to regenerate one of this
  /// bag's partitions after a machine loss: 1 for freshly
  /// loaded/shuffled/aggregated data (stage boundaries cut lineage), +1 per
  /// narrow transformation since. The fault model multiplies machine-loss
  /// recompute cost by this depth.
  int lineage_depth() const { return lineage_depth_; }

  /// Total number of synthetic elements. Pure metadata access — does NOT
  /// model a count() action (see ops.h Count for the job-charging version).
  /// Answered from tracked counts (no forcing) for size-preserving pending
  /// chains.
  int64_t Size() const {
    if (pending_ != nullptr && pending_->exact) {
      int64_t n = 0;
      for (const std::size_t c : pending_->counts) {
        n += static_cast<int64_t>(c);
      }
      return n;
    }
    int64_t n = 0;
    for (const auto& p : partitions()) n += static_cast<int64_t>(p.size());
    return n;
  }

  /// Real element count under the cost model.
  double RealSize() const { return static_cast<double>(Size()) * scale_; }

  /// The same data (partitions shared) with a different lineage depth.
  /// Used by engine::Checkpoint, which truncates lineage to 1 after the
  /// replicated write; cost-free metadata operation.
  Bag<T> WithLineageDepth(int depth) const {
    Bag<T> out = *this;
    out.lineage_depth_ = depth;
    return out;
  }

  /// All elements concatenated, for tests and driver-side logic. Does not
  /// charge the cost model (see ops.h Collect for the action).
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(Size()));
    for (const auto& p : partitions()) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

 private:
  /// State of a deferred narrow chain, shared (not copied) across Bag
  /// handles so a single Force materializes for all of them.
  struct PendingState {
    Feed feed;
    Run run;
    /// Tracked per-partition output cardinalities (see Deferred).
    std::vector<std::size_t> counts;
    bool exact = true;
    bool bounded = true;
    int chain_ops = 1;
    /// Memoized Force() result.
    std::shared_ptr<const Partitions> materialized;
  };

  Cluster* cluster_;
  // Exactly one of parts_ / pending_ is set; Force() flips pending_ into
  // parts_. Mutable because forcing is a caching materialization, not a
  // logical mutation — the bag's value is defined at composition time.
  mutable std::shared_ptr<const Partitions> parts_;
  mutable std::shared_ptr<PendingState> pending_;
  double scale_ = 1.0;
  int64_t key_partitions_ = 0;
  int lineage_depth_ = 1;
};

/// Creates a bag on `cluster` by splitting `data` round-robin into
/// `num_partitions` partitions (cluster default parallelism if <= 0). The
/// bag's scale defaults to ClusterConfig::data_scale; pass an explicit
/// `scale` for driver-side collections whose synthetic cardinality is the
/// real one (e.g. the bag of hyperparameter configurations: scale 1).
template <typename T>
Bag<T> Parallelize(Cluster* cluster, std::vector<T> data,
                   int64_t num_partitions = -1, double scale = -1.0) {
  MATRYOSHKA_CHECK(cluster != nullptr);
  if (num_partitions <= 0) {
    // Degraded-aware: after machine loss (with degraded re-planning on) new
    // bags are cut for the machines still alive, not the construction-time
    // cluster shape.
    num_partitions = cluster->effective_parallelism();
  }
  if (scale < 0) scale = cluster->config().data_scale;
  num_partitions = std::max<int64_t>(1, num_partitions);
  typename Bag<T>::Partitions parts(static_cast<std::size_t>(num_partitions));
  const std::size_t n = data.size();
  // Contiguous chunks, like reading consecutive blocks of a file: locality
  // in the generated data (e.g. the visits of one session) stays within a
  // partition, which is what makes map-side combining effective on real
  // inputs.
  const std::size_t per = (n + num_partitions - 1) / num_partitions;
  std::size_t next = 0;
  for (auto& p : parts) {
    const std::size_t end = std::min(n, next + per);
    p.reserve(end - next);
    for (; next < end; ++next) p.push_back(std::move(data[next]));
  }
  return Bag<T>(cluster, std::move(parts), scale);
}

/// Estimates the *synthetic* bytes held by a bag by sampling up to
/// `sample_per_partition` elements per partition and extrapolating.
/// Multiply by bag.scale() for the real footprint (RealBagBytes).
template <typename T>
double EstimateBagBytes(const Bag<T>& bag, int sample_per_partition = 64) {
  double total = 0.0;
  for (const auto& part : bag.partitions()) {
    if (part.empty()) continue;
    const std::size_t sample =
        std::min<std::size_t>(part.size(),
                              static_cast<std::size_t>(sample_per_partition));
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < sample; ++i) bytes += EstimateSize(part[i]);
    total += static_cast<double>(bytes) / static_cast<double>(sample) *
             static_cast<double>(part.size());
  }
  return total;
}

/// The bag's estimated real in-memory footprint under the cost model.
template <typename T>
double RealBagBytes(const Bag<T>& bag) {
  return EstimateBagBytes(bag) * bag.scale();
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_BAG_H_
