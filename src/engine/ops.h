#ifndef MATRYOSHKA_ENGINE_OPS_H_
#define MATRYOSHKA_ENGINE_OPS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/fused_feed.h"
#include "engine/recovery.h"

/// Narrow (pipelined) transformations and actions of the flat dataflow
/// engine. Wide (shuffling) operators live in shuffle.h and join.h.
///
/// Conventions shared by every operator:
///  - `weight` is the relative CPU cost of the operator's UDF per element
///    (1.0 = a trivial projection). The cost model charges
///    synthetic_elements * bag.scale() * per_element_cost * weight.
///  - Element-wise operators propagate the input bag's scale to the output.
///  - Operators are no-ops returning empty results once the owning cluster
///    is in a failed state (sticky status; check cluster->status() at the
///    end of a program).
///  - Actions (Count, NotEmpty, Collect) charge one job-launch overhead,
///    mirroring Spark where every action triggers a job.
namespace matryoshka::engine {

namespace internal {

/// Per-task costs of scanning each partition once at the given UDF weight.
/// Uses the bag's tracked cardinalities, so charging a pending (fused) bag
/// does not materialize it and yields the same costs its materialization
/// would.
template <typename T>
std::vector<double> ScanCosts(const Bag<T>& bag, double weight) {
  const std::vector<std::size_t> sizes = bag.PartitionSizes();
  std::vector<double> costs;
  costs.reserve(sizes.size());
  for (const std::size_t s : sizes) {
    costs.push_back(bag.cluster()->ComputeCost(
        static_cast<double>(s) * bag.scale(), weight));
  }
  return costs;
}

template <typename T>
void ChargeScanStage(const Bag<T>& bag, double weight,
                     const char* label = "scan") {
  Cluster* c = bag.cluster();
  if (!c->ok()) return;
  c->mutable_metrics().elements_processed +=
      static_cast<int64_t>(bag.RealSize());
  c->AccrueStage(ScanCosts(bag, weight), bag.lineage_depth(),
                 StageContext{label});
}

/// Enforces the forced boundaries of the fusion contract on a narrow op's
/// input: a pending input whose tracked cardinality is inexact (a
/// cardinality-changing op ended the chain) or whose chain is at the depth
/// cap is materialized here, and the new op starts a fresh chain on the
/// result.
template <typename T>
void ForceBoundary(const Bag<T>& bag) {
  if (bag.pending() &&
      (!bag.counts_exact() ||
       bag.pending_chain_ops() >=
           bag.cluster()->config().fusion.max_chain_depth)) {
    bag.Force();
  }
}

/// What a narrow op does to the shape of its input, for the compose step.
struct NarrowShape {
  /// Scan-stage label.
  const char* label;
  /// One output per input: the tracked counts stay exact.
  bool exact;
  /// At most one output per input: the input counts bound the output
  /// (reserved for at force time).
  bool bounded;
  /// Keys unchanged and elements never move: key partitioning survives.
  bool keeps_keys;
};

inline constexpr NarrowShape kMapShape{"map", true, true, false};
inline constexpr NarrowShape kFilterShape{"filter", false, true, true};
inline constexpr NarrowShape kFlatMapShape{"flatMap", false, false, false};
inline constexpr NarrowShape kMapValuesShape{"mapValues", true, true, true};
inline constexpr NarrowShape kFlatMapValuesShape{"flatMapValues", false,
                                                 false, true};
inline constexpr NarrowShape kZipWithUniqueIdShape{"zipWithUniqueId", true,
                                                   true, false};

/// The compose step every narrow op shares: force the input's boundary,
/// charge the op's scan stage from tracked cardinalities (every simulated
/// charge happens here, at composition time), build the concrete chain
/// with `make_chain()`, defer it as the output's pending state behind the
/// one erasure boundary, and pass the result through the auto-checkpoint
/// probe. Nothing executes until a forcing point drives the chain.
template <typename ChainT, typename T, typename MakeChain>
FusedBag<ChainT> Compose(const Bag<T>& bag, double weight,
                         const NarrowShape& shape, MakeChain make_chain) {
  using Out = typename ChainT::Out;
  Cluster* c = bag.cluster();
  if (!c->ok()) return FusedBag<ChainT>(Bag<Out>(c), nullptr);
  ForceBoundary(bag);
  ChargeScanStage(bag, weight, shape.label);
  const int chain_ops = bag.pending_chain_ops() + 1;
  auto chain = std::make_shared<const ChainT>(make_chain());
  typename Bag<Out>::Feed feed;
  typename Bag<Out>::Run run;
  EraseChain(chain, &feed, &run);
  return FusedBag<ChainT>(
      MaybeAutoCheckpoint(Bag<Out>::Deferred(
          c, std::move(feed), std::move(run), bag.PartitionSizes(),
          shape.exact, shape.bounded, chain_ops, bag.scale(),
          shape.keeps_keys ? bag.key_partitions() : 0,
          bag.lineage_depth() + 1)),
      std::move(chain));
}

/// True when a narrow op on this FusedBag handle can extend its concrete
/// chain in place (the zero-erasure path). Forces the input's boundary
/// first, so an extendable input is size-preserving and under the depth
/// cap. Declines on a failed cluster, on a handle without a chain (see
/// FusedBag), on a forced chain, and when a sibling handle already forced
/// the shared state (extending would re-run the chain the memoized result
/// already paid for): the caller then re-roots through the Bag<T>
/// overload.
template <typename Chain>
bool Extendable(const FusedBag<Chain>& bag) {
  if (!bag.cluster()->ok()) return false;
  ForceBoundary(bag);
  return bag.chain() != nullptr && bag.pending() &&
         !bag.pending_materialized();
}

/// Id stride of ZipWithUniqueId: the partition count (at least 1).
template <typename T>
uint64_t UniqueIdStride(const Bag<T>& bag) {
  return static_cast<uint64_t>(std::max<int64_t>(1, bag.num_partitions()));
}

}  // namespace internal

/// Applies `f` to every element. f: T -> U.
///
/// Like every narrow operator below, Map returns an internal::FusedBag — a
/// Bag subclass additionally carrying the pending chain's concrete feed
/// type (fused_feed.h). Holding the result in `auto` lets the next narrow
/// op extend that static chain without type erasure; assigning to a plain
/// Bag<U> slices the handle, and the next op roots a fresh chain at the
/// erased pending feed (one erased hop per such boundary).
template <typename T, typename F>
auto Map(const Bag<T>& bag, F f, double weight = 1.0) {
  using ChainT = internal::MapFeed<F, internal::SourceFeed<T>>;
  return internal::Compose<ChainT>(bag, weight, internal::kMapShape, [&] {
    return ChainT{internal::MakeSourceFeed(bag), f};
  });
}

/// Map over a FusedBag: extends the concrete chain type in place — the
/// composed pipeline stays ONE monomorphic loop — falling back to the
/// Bag<T> overload (re-rooted at the erased or materialized state) at any
/// runtime boundary: chain forced, depth cap, shared materialization.
template <typename Chain, typename F>
auto Map(const internal::FusedBag<Chain>& bag, F f, double weight = 1.0) {
  using ExtT = internal::MapFeed<F, Chain>;
  if (!internal::Extendable(bag)) {
    return internal::FusedBag<ExtT>(
        Map(static_cast<const Bag<typename Chain::Out>&>(bag), f, weight),
        nullptr);
  }
  return internal::Compose<ExtT>(bag, weight, internal::kMapShape,
                                 [&] { return ExtT{*bag.chain(), f}; });
}

/// Keeps the elements for which `pred` returns true. The output
/// cardinality is data-dependent: the tracked counts demote to an upper
/// bound, making the chain a forced boundary for the next narrow op.
template <typename T, typename P>
auto Filter(const Bag<T>& bag, P pred, double weight = 1.0) {
  using ChainT = internal::FilterFeed<P, internal::SourceFeed<T>>;
  return internal::Compose<ChainT>(bag, weight, internal::kFilterShape, [&] {
    return ChainT{internal::MakeSourceFeed(bag), pred};
  });
}

/// Filter over a FusedBag: extends the concrete chain (see Map).
template <typename Chain, typename P>
auto Filter(const internal::FusedBag<Chain>& bag, P pred,
            double weight = 1.0) {
  using ExtT = internal::FilterFeed<P, Chain>;
  if (!internal::Extendable(bag)) {
    return internal::FusedBag<ExtT>(
        Filter(static_cast<const Bag<typename Chain::Out>&>(bag), pred,
               weight),
        nullptr);
  }
  return internal::Compose<ExtT>(bag, weight, internal::kFilterShape,
                                 [&] { return ExtT{*bag.chain(), pred}; });
}

/// Applies `f` to every element and concatenates the results.
/// f: T -> iterable of U. Expansion is unbounded: the tracked counts keep
/// only the partition count.
template <typename T, typename F>
auto FlatMap(const Bag<T>& bag, F f, double weight = 1.0) {
  using ChainT = internal::FlatMapFeed<F, internal::SourceFeed<T>>;
  return internal::Compose<ChainT>(bag, weight, internal::kFlatMapShape, [&] {
    return ChainT{internal::MakeSourceFeed(bag), f};
  });
}

/// FlatMap over a FusedBag: extends the concrete chain (see Map).
template <typename Chain, typename F>
auto FlatMap(const internal::FusedBag<Chain>& bag, F f, double weight = 1.0) {
  using ExtT = internal::FlatMapFeed<F, Chain>;
  if (!internal::Extendable(bag)) {
    return internal::FusedBag<ExtT>(
        FlatMap(static_cast<const Bag<typename Chain::Out>&>(bag), f, weight),
        nullptr);
  }
  return internal::Compose<ExtT>(bag, weight, internal::kFlatMapShape,
                                 [&] { return ExtT{*bag.chain(), f}; });
}

/// First components of a bag of pairs.
template <typename K, typename V>
auto Keys(const Bag<std::pair<K, V>>& bag) {
  return Map(bag, [](const std::pair<K, V>& p) { return p.first; });
}

/// Second components of a bag of pairs.
template <typename K, typename V>
auto Values(const Bag<std::pair<K, V>>& bag) {
  return Map(bag, [](const std::pair<K, V>& p) { return p.second; });
}

/// Applies `f` to the value of every pair, keeping keys, and — since keys
/// do not change — preserving the bag's key partitioning (Spark's
/// mapValues-with-preservesPartitioning).
template <typename K, typename V, typename F>
auto MapValues(const Bag<std::pair<K, V>>& bag, F f, double weight = 1.0) {
  using ChainT =
      internal::MapValuesFeed<F, internal::SourceFeed<std::pair<K, V>>>;
  return internal::Compose<ChainT>(
      bag, weight, internal::kMapValuesShape,
      [&] { return ChainT{internal::MakeSourceFeed(bag), f}; });
}

/// MapValues over a FusedBag: extends the concrete chain (see Map).
template <typename Chain, typename F>
auto MapValues(const internal::FusedBag<Chain>& bag, F f,
               double weight = 1.0) {
  using ExtT = internal::MapValuesFeed<F, Chain>;
  if (!internal::Extendable(bag)) {
    return internal::FusedBag<ExtT>(
        MapValues(static_cast<const Bag<typename Chain::Out>&>(bag), f,
                  weight),
        nullptr);
  }
  return internal::Compose<ExtT>(bag, weight, internal::kMapValuesShape,
                                 [&] { return ExtT{*bag.chain(), f}; });
}

/// Applies `f` to the value of every pair and emits one output pair per
/// produced value, under the same key; preserves key partitioning.
/// f: V -> iterable of W.
template <typename K, typename V, typename F>
auto FlatMapValues(const Bag<std::pair<K, V>>& bag, F f, double weight = 1.0) {
  using ChainT =
      internal::FlatMapValuesFeed<F, internal::SourceFeed<std::pair<K, V>>>;
  return internal::Compose<ChainT>(
      bag, weight, internal::kFlatMapValuesShape,
      [&] { return ChainT{internal::MakeSourceFeed(bag), f}; });
}

/// FlatMapValues over a FusedBag: extends the concrete chain (see Map).
template <typename Chain, typename F>
auto FlatMapValues(const internal::FusedBag<Chain>& bag, F f,
                   double weight = 1.0) {
  using ExtT = internal::FlatMapValuesFeed<F, Chain>;
  if (!internal::Extendable(bag)) {
    return internal::FusedBag<ExtT>(
        FlatMapValues(static_cast<const Bag<typename Chain::Out>&>(bag), f,
                      weight),
        nullptr);
  }
  return internal::Compose<ExtT>(bag, weight, internal::kFlatMapValuesShape,
                                 [&] { return ExtT{*bag.chain(), f}; });
}

/// Bag union (multiset semantics, like Spark's union): concatenates the two
/// bags' partition lists. Metadata-only; free in the cost model. The result
/// takes the larger scale (unioning bags of different scales is rare and
/// the bigger side dominates the cost model). When both inputs share the
/// same key partitioning, partitions are merged pairwise so the result
/// stays co-partitioned (a zipPartitions-style union).
template <typename T>
Bag<T> Union(const Bag<T>& a, const Bag<T>& b) {
  MATRYOSHKA_CHECK(a.cluster() == b.cluster());
  Cluster* c = a.cluster();
  if (!c->ok()) return Bag<T>(c);
  // Union concatenates materialized partition lists; pending chains on
  // either side are forced (charge-free) rather than composed.
  a.Force();
  b.Force();
  const double scale = std::max(a.scale(), b.scale());
  // Metadata-only: lineage is whichever input chain is deeper.
  const int lineage = std::max(a.lineage_depth(), b.lineage_depth());
  if (a.key_partitions() > 0 && a.key_partitions() == b.key_partitions() &&
      a.num_partitions() == b.num_partitions()) {
    typename Bag<T>::Partitions out = a.partitions();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].insert(out[i].end(), b.partitions()[i].begin(),
                    b.partitions()[i].end());
    }
    return Bag<T>(c, std::move(out), scale, a.key_partitions(), lineage);
  }
  typename Bag<T>::Partitions out = a.partitions();
  for (const auto& p : b.partitions()) out.push_back(p);
  return Bag<T>(c, std::move(out), scale, 0, lineage);
}

/// Pairs every element with a unique 64-bit id (narrow: ids are formed from
/// the partition index and the offset within the partition, like Spark's
/// zipWithUniqueId). Only size-preserving chains reach it unforced, so each
/// element's stream offset equals its materialized offset.
template <typename T>
auto ZipWithUniqueId(const Bag<T>& bag) {
  using ChainT = internal::ZipUniqueIdFeed<internal::SourceFeed<T>>;
  return internal::Compose<ChainT>(
      bag, 1.0, internal::kZipWithUniqueIdShape, [&] {
        return ChainT{internal::MakeSourceFeed(bag),
                      internal::UniqueIdStride(bag)};
      });
}

/// ZipWithUniqueId over a FusedBag: extends the concrete chain (see Map).
template <typename Chain>
auto ZipWithUniqueId(const internal::FusedBag<Chain>& bag) {
  using ExtT = internal::ZipUniqueIdFeed<Chain>;
  if (!internal::Extendable(bag)) {
    return internal::FusedBag<ExtT>(
        ZipWithUniqueId(static_cast<const Bag<typename Chain::Out>&>(bag)),
        nullptr);
  }
  return internal::Compose<ExtT>(
      bag, 1.0, internal::kZipWithUniqueIdShape,
      [&] { return ExtT{*bag.chain(), internal::UniqueIdStride(bag)}; });
}

// --- Actions ---
//
// Every action is a forcing point for pending fused chains: the chain
// materializes (charge-free — composition already paid) before the action's
// own job/scan charges, mirroring Spark where an action runs the pipelined
// stage it terminates.

/// Number of synthetic elements. Charges a job plus a scan.
template <typename T>
int64_t Count(const Bag<T>& bag) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return 0;
  bag.Force();
  c->BeginJob("count");
  internal::ChargeScanStage(bag, 0.25, "count");
  return bag.Size();
}

/// True iff the bag has at least one element. Charges a job plus a scan
/// (used by lifted loops to test their exit condition, Listing 4 line 9).
template <typename T>
bool NotEmpty(const Bag<T>& bag) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return false;
  bag.Force();
  c->BeginJob("notEmpty");
  internal::ChargeScanStage(bag, 0.05, "notEmpty");
  return bag.Size() > 0;
}

/// Materializes the bag at the driver. Charges a job, a scan, and the
/// network transfer to the driver; fails the cluster with OutOfMemory if the
/// data does not fit into one machine.
template <typename T>
std::vector<T> Collect(const Bag<T>& bag) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return {};
  bag.Force();
  c->BeginJob("collect");
  internal::ChargeScanStage(bag, 0.25, "collect");
  const double bytes = RealBagBytes(bag);
  if (bytes > c->config().memory_per_machine_bytes) {
    c->Fail(Status::OutOfMemory("collect result does not fit on the driver"));
    return {};
  }
  c->AccrueCollect(bytes);
  return bag.ToVector();
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_OPS_H_
