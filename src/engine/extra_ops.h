#ifndef MATRYOSHKA_ENGINE_EXTRA_OPS_H_
#define MATRYOSHKA_ENGINE_EXTRA_OPS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/external/external_group.h"
#include "engine/join.h"
#include "engine/keyed_index.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

/// Secondary operators of the flat engine, rounding out the RDD-style API:
/// sampling (the paper's Sec. 2.3 mentions sampling-based hyperparameter
/// techniques that vary sample sizes), multiset difference/intersection,
/// generalized keyed aggregation, and a top-k action.
namespace matryoshka::engine {

namespace internal {

/// Keep threshold of a Bernoulli sample: an element is kept when its 64-bit
/// draw is at most this.
inline uint64_t SampleThreshold(double fraction) {
  return static_cast<uint64_t>(
      fraction >= 1.0 ? ~uint64_t{0}
                      : fraction * static_cast<double>(~uint64_t{0}));
}

}  // namespace internal

/// Bernoulli sample: keeps each element independently with probability
/// `fraction`, deterministically derived from (seed, element hash, position)
/// so re-evaluation is stable. Narrow; preserves scale (a real engine's
/// sample of the real data keeps fraction * real elements). Only
/// size-preserving chains reach it unforced, so each element's stream
/// position — and with it the keep/drop draw — equals its materialized one.
template <typename T>
auto Sample(const Bag<T>& bag, double fraction, uint64_t seed) {
  using ChainT = internal::SampleFeed<internal::SourceFeed<T>>;
  return internal::Compose<ChainT>(bag, 0.25, internal::kSampleShape, [&] {
    return ChainT{internal::MakeSourceFeed(bag), seed,
                  internal::SampleThreshold(fraction)};
  });
}

/// Sample over a FusedBag: extends the concrete chain without erasure (see
/// ops.h Map for the extension contract).
template <typename Chain>
auto Sample(const internal::FusedBag<Chain>& bag, double fraction,
            uint64_t seed) {
  using ExtT = internal::SampleFeed<Chain>;
  if (!internal::Extendable(bag)) {
    return internal::FusedBag<ExtT>(
        Sample(static_cast<const Bag<typename Chain::Out>&>(bag), fraction,
               seed),
        nullptr);
  }
  return internal::Compose<ExtT>(bag, 0.25, internal::kSampleShape, [&] {
    return ExtT{*bag.chain(), seed, internal::SampleThreshold(fraction)};
  });
}

/// Multiset difference with set semantics on the right (Spark's subtract):
/// keeps the elements of `a` that do not occur in `b` at all. Shuffles both
/// sides by element hash.
template <typename T>
Bag<T> Subtract(const Bag<T>& a, const Bag<T>& b,
                int64_t num_partitions = -1) {
  MATRYOSHKA_CHECK(a.cluster() == b.cluster());
  Cluster* c = a.cluster();
  if (!c->ok()) return Bag<T>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto as = internal::ShuffleBy(
      a, parts, [&](const T& x) { return internal::PartitionOfKey(x, parts); },
      0.25, "subtract[left]");
  auto bs = internal::ShuffleBy(
      b, parts, [&](const T& x) { return internal::PartitionOfKey(x, parts); },
      0.25, "subtract[right]");
  std::vector<double> costs(static_cast<std::size_t>(parts));
  for (int64_t i = 0; i < parts; ++i) {
    costs[static_cast<std::size_t>(i)] =
        c->ComputeCost(static_cast<double>(as[i].size()) * a.scale() +
                           static_cast<double>(bs[i].size()) * b.scale(),
                       0.5);
  }
  c->AccrueStage(costs, /*lineage_depth=*/1, StageContext{"subtract"});
  typename Bag<T>::Partitions out(static_cast<std::size_t>(parts));
  internal::GuardedParallelFor(c, static_cast<std::size_t>(parts), [&](std::size_t i) {
    std::vector<T> exclude;
    const KeyedIndex index = DistinctInto(bs[i], &exclude);
    for (const auto& x : as[i]) {
      if (!index.Find(x, exclude).found()) out[i].push_back(x);
    }
  });
  return Bag<T>(c, std::move(out), a.scale());
}

/// Set intersection (deduplicated, like Spark's intersection): the distinct
/// elements occurring on both sides.
template <typename T>
Bag<T> Intersection(const Bag<T>& a, const Bag<T>& b,
                    int64_t num_partitions = -1) {
  MATRYOSHKA_CHECK(a.cluster() == b.cluster());
  Cluster* c = a.cluster();
  if (!c->ok()) return Bag<T>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto as = internal::ShuffleBy(
      a, parts, [&](const T& x) { return internal::PartitionOfKey(x, parts); },
      0.25, "intersection[left]");
  auto bs = internal::ShuffleBy(
      b, parts, [&](const T& x) { return internal::PartitionOfKey(x, parts); },
      0.25, "intersection[right]");
  std::vector<double> costs(static_cast<std::size_t>(parts));
  for (int64_t i = 0; i < parts; ++i) {
    costs[static_cast<std::size_t>(i)] =
        c->ComputeCost(static_cast<double>(as[i].size()) * a.scale() +
                           static_cast<double>(bs[i].size()) * b.scale(),
                       0.5);
  }
  c->AccrueStage(costs, /*lineage_depth=*/1, StageContext{"intersection"});
  typename Bag<T>::Partitions out(static_cast<std::size_t>(parts));
  internal::GuardedParallelFor(c, static_cast<std::size_t>(parts), [&](std::size_t i) {
    std::vector<T> right;
    const KeyedIndex index = DistinctInto(bs[i], &right);
    // One flag per right-side slot: an element is emitted at its first
    // occurrence in `a`.
    std::vector<bool> emitted(right.size(), false);
    for (const auto& x : as[i]) {
      const KeyedIndex::Probe probe = index.Find(x, right);
      if (probe.found() && !emitted[probe.slot]) {
        emitted[probe.slot] = true;
        out[i].push_back(x);
      }
    }
  });
  return Bag<T>(c, std::move(out), std::min(a.scale(), b.scale()));
}

/// Generalized keyed aggregation (Spark's aggregateByKey): folds each key's
/// values into an accumulator of a different type. `seq(acc, v)` absorbs a
/// value; `comb(acc, acc)` merges partial accumulators across partitions.
/// Map-side combining applies, like ReduceByKey; see shuffle.h for
/// `result_scale`.
template <typename K, typename V, typename A, typename Seq, typename Comb>
Bag<std::pair<K, A>> AggregateByKey(const Bag<std::pair<K, V>>& bag, A zero,
                                    Seq seq, Comb comb,
                                    int64_t num_partitions = -1,
                                    double weight = 1.0,
                                    double result_scale = -1.0) {
  // Absorb values into accumulators map-side with the in-memory keyed build
  // — emitting keys in first-occurrence order, the canonical keyed-build
  // order (see external/external_group.h) — then merge accumulators with an
  // ordinary (budget-aware) ReduceByKey.
  auto partials = MapPartitions(
      bag,
      [zero, seq](const std::vector<std::pair<K, V>>& part) {
        auto init = [&](V&& v) { return seq(zero, v); };
        auto absorb = [&](A& acc, V&& v) { acc = seq(acc, v); };
        auto growth = [](const V&) { return std::size_t{0}; };
        // Never spills: the quota is unbounded, so no stats are written.
        external::BoundedAggregator<K, V, A, decltype(init), decltype(absorb),
                                    decltype(growth)>
            agg(static_cast<std::size_t>(-1), init, absorb, growth,
                /*stats=*/nullptr);
        agg.Reserve(part.size());
        for (const auto& [k, v] : part) agg.Feed(k, v);
        return agg.Finish();
      },
      weight);
  return ReduceByKey(partials, comb, num_partitions, weight, result_scale);
}

/// The k smallest elements under `cmp` (an action; k is expected to be
/// driver-sized). Deterministic: ties are broken by comparison order after
/// a full sort of the per-partition winners.
template <typename T, typename Cmp>
std::vector<T> TopK(const Bag<T>& bag, std::size_t k, Cmp cmp) {
  Cluster* c = bag.cluster();
  if (!c->ok() || k == 0) return {};
  bag.Force();  // actions are forcing points
  c->BeginJob("top");
  internal::ChargeScanStage(bag, 0.5, "top");
  std::vector<T> heap;
  for (const auto& part : bag.partitions()) {
    for (const auto& x : part) {
      heap.push_back(x);
      std::push_heap(heap.begin(), heap.end(), cmp);
      if (heap.size() > k) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.pop_back();
      }
    }
  }
  std::sort(heap.begin(), heap.end(), cmp);
  return heap;
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_EXTRA_OPS_H_
