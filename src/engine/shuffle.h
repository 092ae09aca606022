#ifndef MATRYOSHKA_ENGINE_SHUFFLE_H_
#define MATRYOSHKA_ENGINE_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "engine/bag.h"
#include "engine/external/external_group.h"
#include "engine/external/external_scatter.h"
#include "engine/keyed_index.h"
#include "engine/ops.h"
#include "engine/parallel_shuffle.h"

/// Wide (shuffling) operators: repartitioning, keyed aggregation, grouping,
/// and duplicate elimination. Joins live in join.h.
///
/// Scale semantics: repartitioning keeps the input scale. Aggregating
/// operators (ReduceByKey, Distinct) take an optional `result_scale`: by
/// default the input scale is kept (right when the key space scales with
/// the data, e.g. visitor IPs); pass an explicit value — typically 1.0 or
/// the tag bag's scale — when the operator collapses onto a fixed key space
/// (e.g. per-(run, centroid) aggregates in lifted K-means), so the tiny
/// combined intermediate is not billed as if it were data-sized.
///
/// Lineage semantics (fault model): a shuffle is a stage boundary, so every
/// wide operator's output restarts at lineage depth 1 — after a machine
/// loss, only the narrow chain since the last shuffle is recomputed. The
/// co-partitioned ReduceByKey fast path is narrow and keeps growing the
/// depth.
namespace matryoshka::engine {

namespace internal {

inline int64_t ResolveParallelism(Cluster* c, int64_t requested) {
  // effective_parallelism == config default_parallelism until machine loss
  // with degraded re-planning on, which scales it to the surviving machines.
  return requested > 0 ? requested : c->effective_parallelism();
}

inline double ResolveScale(double requested, double input_scale) {
  return requested >= 0 ? requested : input_scale;
}

/// True when a keyed bag is already hash-partitioned on its key into
/// exactly `parts` partitions — the shuffle is then a no-op on the network.
template <typename T>
bool AlreadyKeyPartitioned(const Bag<T>& bag, int64_t parts) {
  return bag.key_partitions() == parts && bag.num_partitions() == parts;
}

/// The scatter funnel of every wide operator: the in-memory deterministic
/// kernel (parallel_shuffle.h) when the real budget is unbounded or the
/// element type is not spillable, the external spilling kernel otherwise.
/// Both produce bit-identical output (the external determinism contract);
/// the external path additionally reports its real spill totals — reduced
/// in producer order — into the cluster's real_* metrics, driver-side.
///
/// Graceful degradation (the real-fault contract): when the external
/// scatter's spill IO fails — ENOSPC, EIO through the retry budget, a
/// checksum mismatch on merge-on-read — the inputs are still untouched, so
/// with RealIoPolicy::fallback_in_memory (the default) the op re-runs on
/// the in-memory kernel, ignoring the scratch budget for this one op:
/// bit-identical output, counted in inmemory_fallbacks and logged. With the
/// fallback off, or on an injected allocation failure (falling back to
/// MORE memory use would be self-defeating), the job fails with the typed
/// Status instead.
template <typename T, typename PartOf>
std::vector<std::vector<T>> BudgetedScatter(
    Cluster* c, const std::vector<std::vector<T>>& inputs,
    std::size_t num_parts, const PartOf& part_of, const char* label) {
  if constexpr (external::kSpillable<T>) {
    if (!c->real_budget().unbounded()) {
      external::SpillStats stats;
      std::vector<std::vector<T>> out;
      const Status st = external::ExternalScatter(
          c->pool(), inputs, num_parts, part_of, c->real_budget(),
          c->failpoints(), &stats, &out);
      if (st.ok()) {
        c->NoteRealSpill(stats, label);
        return out;
      }
      const bool disk_failure =
          st.IsResourceExhausted() || st.IsIOError() || st.IsDataCorruption();
      if (disk_failure && c->failpoints()->policy().fallback_in_memory) {
        stats.inmemory_fallbacks += 1;
        c->NoteRealSpill(stats, label);
        MATRYOSHKA_LOG(kWarning)
            << label << ": spill IO failed (" << st.ToString()
            << "); re-running the scatter in memory";
        return ParallelScatter(c->pool(), inputs, num_parts, part_of);
      }
      c->NoteRealSpill(stats, label);
      c->Fail(st);
      return std::vector<std::vector<T>>(num_parts);
    }
  }
  return ParallelScatter(c->pool(), inputs, num_parts, part_of);
}

/// Per-worker byte quota for a bounded phase of `workers` parallel tasks;
/// SIZE_MAX (never spill) when unbounded.
inline std::size_t WorkerQuota(Cluster* c, std::size_t workers) {
  return c->real_budget().unbounded() ? static_cast<std::size_t>(-1)
                                      : c->real_budget().ShareFor(workers);
}

/// The keyed-reduction build shared by ReduceByKey's three loops (narrow
/// fast path, map-side combine, reduce-side merge): per input partition, an
/// insertion-ordered aggregation emitting keys in FIRST-OCCURRENCE order
/// (the canonical emission order of every keyed build, see
/// external/external_group.h) that overflows raw elements of non-admitted
/// keys to temp-file runs under the partition's static budget share. `f` is
/// applied in exact element stream order per key for any budget.
template <typename K, typename V, typename F>
std::vector<std::vector<std::pair<K, V>>> ReduceBuild(
    Cluster* c, const std::vector<std::vector<std::pair<K, V>>>& in,
    const F& f, const char* label) {
  std::vector<std::vector<std::pair<K, V>>> out(in.size());
  std::vector<external::SpillStats> stats(in.size());
  std::vector<Status> status(in.size());
  const std::size_t quota = WorkerQuota(c, in.size());
  GuardedParallelFor(c, in.size(), [&](std::size_t i) {
    auto init = [](V&& v) { return std::move(v); };
    auto absorb = [&f](V& acc, V&& v) { acc = f(acc, v); };
    auto growth = [](const V&) { return std::size_t{0}; };
    external::BoundedAggregator<K, V, V, decltype(init), decltype(absorb),
                                decltype(growth)>
        agg(quota, init, absorb, growth, stats[i], c->failpoints(),
            /*stream_id=*/i);
    agg.Reserve(in[i].size());
    for (const auto& [k, v] : in[i]) agg.Feed(k, v);
    out[i] = agg.Finish();
    status[i] = agg.status();
  });
  external::SpillStats total;
  for (const auto& s : stats) total.Add(s);
  c->NoteRealSpill(total, label);
  // First unrecoverable build failure by ascending partition index —
  // deterministic for any pool size. (Write failures with the in-memory
  // fallback never reach here; the aggregator drained and finished.)
  for (const Status& st : status) {
    if (!st.ok()) {
      c->Fail(st);
      break;
    }
  }
  return out;
}

/// Redistributes elements into `num_parts` partitions by `part_of(elem)`.
/// Charges the map-side scan and the network shuffle, not the reduce side.
/// The data movement runs on the deterministic parallel shuffle kernel
/// (parallel_shuffle.h): bit-identical partition contents and ordering for
/// any pool size, exact-reserved output vectors via the counting pre-pass.
template <typename T, typename PartOf>
typename Bag<T>::Partitions ShuffleBy(const Bag<T>& bag, int64_t num_parts,
                                      PartOf part_of, double map_weight,
                                      const char* label = "shuffle") {
  Cluster* c = bag.cluster();
  if (!c->ok()) {
    return typename Bag<T>::Partitions(static_cast<std::size_t>(num_parts));
  }
  // Wide operators are forcing points: a pending fused chain materializes
  // (charge-free) before the shuffle's own scan + network charges.
  bag.Force();
  ChargeScanStage(bag, map_weight, label);
  c->AccrueShuffle(RealBagBytes(bag), label);
  return BudgetedScatter(c, bag.partitions(),
                         static_cast<std::size_t>(num_parts), part_of, label);
}

template <typename K>
std::size_t PartitionOfKey(const K& key, int64_t num_parts) {
  return static_cast<std::size_t>(Hasher{}(key) %
                                  static_cast<uint64_t>(num_parts));
}

/// Per-task costs of processing already-shuffled reduce-side partitions at
/// the given scale.
template <typename T>
std::vector<double> PartitionCosts(
    Cluster* c, const std::vector<std::vector<T>>& parts, double weight,
    double scale) {
  std::vector<double> costs;
  costs.reserve(parts.size());
  for (const auto& p : parts) {
    costs.push_back(
        c->ComputeCost(static_cast<double>(p.size()) * scale, weight));
  }
  return costs;
}

}  // namespace internal

/// Redistributes the bag into `num_partitions` hash partitions (by element
/// hash). A full shuffle.
template <typename T>
Bag<T> Repartition(const Bag<T>& bag, int64_t num_partitions = -1) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<T>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto out = internal::ShuffleBy(
      bag, parts,
      [&](const T& x) { return internal::PartitionOfKey(x, parts); }, 0.25,
      "repartition");
  c->AccrueStage(internal::PartitionCosts(c, out, 0.1, bag.scale()),
                 /*lineage_depth=*/1, StageContext{"repartition[reduce]"});
  return Bag<T>(c, std::move(out), bag.scale());
}

/// Redistributes a bag of pairs so all elements of one key share a
/// partition. A full shuffle.
template <typename K, typename V>
Bag<std::pair<K, V>> PartitionByKey(const Bag<std::pair<K, V>>& bag,
                                    int64_t num_partitions = -1) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<std::pair<K, V>>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  // Metadata-only no-op when already co-partitioned (charge-free); a
  // pending key-preserving chain stays pending.
  if (internal::AlreadyKeyPartitioned(bag, parts)) return bag;
  auto out = internal::ShuffleBy(
      bag, parts,
      [&](const std::pair<K, V>& x) {
        return internal::PartitionOfKey(x.first, parts);
      },
      0.25, "partitionByKey");
  c->AccrueStage(internal::PartitionCosts(c, out, 0.1, bag.scale()),
                 /*lineage_depth=*/1, StageContext{"partitionByKey[reduce]"});
  return Bag<std::pair<K, V>>(c, std::move(out), bag.scale(), parts);
}

/// Merges the values of each key with the associative, commutative `f`.
///
/// Does map-side combining (like Spark's reduceByKey): only one combined
/// value per (partition, key) crosses the shuffle, so memory on the reduce
/// side is bounded by the number of distinct keys, not the input size.
/// See the header comment for `result_scale`.
template <typename K, typename V, typename F>
Bag<std::pair<K, V>> ReduceByKey(const Bag<std::pair<K, V>>& bag, F f,
                                 int64_t num_partitions = -1,
                                 double weight = 1.0,
                                 double result_scale = -1.0) {
  using KV = std::pair<K, V>;
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<KV>(c);
  // Forcing point (both the narrow fast path and the shuffle path execute
  // on materialized partitions).
  bag.Force();
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  const double out_scale = internal::ResolveScale(result_scale, bag.scale());

  if (internal::AlreadyKeyPartitioned(bag, parts)) {
    // Co-partitioned input: the whole reduction is map-side; no shuffle.
    // This path is narrow, so lineage keeps growing.
    internal::ChargeScanStage(bag, weight, "reduceByKey[narrow]");
    typename Bag<KV>::Partitions out = internal::ReduceBuild<K, V>(
        c, bag.partitions(), f, "reduceByKey[narrow]");
    return internal::MaybeAutoCheckpoint(
        Bag<KV>(c, std::move(out), out_scale, parts, bag.lineage_depth() + 1));
  }

  // Map side: per-partition combine at the input scale.
  internal::ChargeScanStage(bag, weight, "reduceByKey[combine]");
  typename Bag<KV>::Partitions combined = internal::ReduceBuild<K, V>(
      c, bag.partitions(), f, "reduceByKey[combine]");
  // The combined intermediate lives at the RESULT scale: when the key space
  // is fixed, combining saturates in the real run just as it does here.
  Bag<KV> combined_bag(c, std::move(combined), out_scale);

  // Shuffle the combined data, then reduce-side merge. The scatter runs on
  // the deterministic parallel kernel with exact-reserved buckets.
  c->AccrueShuffle(RealBagBytes(combined_bag), "reduceByKey");
  typename Bag<KV>::Partitions shuffled = internal::BudgetedScatter(
      c, combined_bag.partitions(), static_cast<std::size_t>(parts),
      [&](const KV& kv) {
        return internal::PartitionOfKey(kv.first, parts);
      },
      "reduceByKey");
  const double spill =
      c->SpillFactor(RealBagBytes(combined_bag) /
                     static_cast<double>(c->planning_machines()));
  auto costs = internal::PartitionCosts(c, shuffled, weight, out_scale);
  for (auto& cost : costs) cost *= spill;
  c->AccrueStage(costs, /*lineage_depth=*/1,
                 StageContext{"reduceByKey[merge]", spill});

  typename Bag<KV>::Partitions out =
      internal::ReduceBuild<K, V>(c, shuffled, f, "reduceByKey[merge]");
  return Bag<KV>(c, std::move(out), out_scale, parts);
}

/// Collects all values of each key into one in-memory group
/// (Bag[(K, Array[V])] in the paper's notation).
///
/// No map-side combining is possible, so the *whole group* must materialize
/// inside a single reduce task: the cost model checks every group (scaled by
/// `group_expansion`, the working-set multiplier of whatever will process
/// the group in the same task) against the per-task memory budget and fails
/// with OutOfMemory when one does not fit. This is precisely the mechanism
/// that breaks the outer-parallel workaround on big or skewed groups.
///
/// The output bag keeps the input scale: group *contents* scale with the
/// data even though the number of groups usually does not.
template <typename K, typename V>
Bag<std::pair<K, std::vector<V>>> GroupByKey(const Bag<std::pair<K, V>>& bag,
                                             int64_t num_partitions = -1,
                                             double group_expansion = 1.0) {
  using KG = std::pair<K, std::vector<V>>;
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<KG>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto shuffled = internal::ShuffleBy(
      bag, parts,
      [&](const std::pair<K, V>& x) {
        return internal::PartitionOfKey(x.first, parts);
      },
      0.25, "groupByKey");
  const double spill = c->SpillFactor(
      RealBagBytes(bag) / static_cast<double>(c->planning_machines()));
  auto costs = internal::PartitionCosts(c, shuffled, 0.5, bag.scale());
  for (auto& cost : costs) cost *= spill;
  c->AccrueStage(costs, /*lineage_depth=*/1,
                 StageContext{"groupByKey[group]", spill});

  // Group build, parallel across reduce partitions, emitting groups in
  // first-occurrence key order (the canonical keyed-build order; see
  // external/external_group.h). Under a real memory budget the build spills
  // raw elements of non-admitted keys and re-feeds them in later passes —
  // group contents stay in exact arrival order for any budget. Each
  // partition tracks its own largest group; the driver reduces the
  // per-partition maxima so the memory check stays independent of execution
  // order.
  typename Bag<KG>::Partitions out(static_cast<std::size_t>(parts));
  std::vector<double> max_bytes(shuffled.size(), 0.0);
  std::vector<external::SpillStats> spill_stats(shuffled.size());
  std::vector<Status> build_status(shuffled.size());
  const std::size_t quota = internal::WorkerQuota(c, shuffled.size());
  internal::GuardedParallelFor(c, shuffled.size(), [&](std::size_t i) {
    auto init = [](V&& v) {
      std::vector<V> g;
      g.push_back(std::move(v));
      return g;
    };
    auto absorb = [](std::vector<V>& g, V&& v) { g.push_back(std::move(v)); };
    auto growth = [](const V& v) { return EstimateSize(v); };
    external::BoundedAggregator<K, V, std::vector<V>, decltype(init),
                                decltype(absorb), decltype(growth)>
        agg(quota, init, absorb, growth, spill_stats[i], c->failpoints(),
            /*stream_id=*/i);
    for (auto& [k, v] : shuffled[i]) agg.Feed(k, std::move(v));
    out[i] = agg.Finish();
    build_status[i] = agg.status();
    for (const auto& [k, vs] : out[i]) {
      // Sample-estimate the group footprint.
      double bytes = static_cast<double>(sizeof(KG));
      if (!vs.empty()) {
        bytes += EstimateSize(vs.front()) * static_cast<double>(vs.size());
      }
      max_bytes[i] = std::max(max_bytes[i], bytes);
    }
  });
  external::SpillStats group_spill;
  for (const auto& s : spill_stats) group_spill.Add(s);
  c->NoteRealSpill(group_spill, "groupByKey[group]");
  for (const Status& st : build_status) {
    if (!st.ok()) {
      c->Fail(st);
      return Bag<KG>(c);
    }
  }
  double max_group_bytes = 0.0;
  for (double b : max_bytes) max_group_bytes = std::max(max_group_bytes, b);
  c->CheckTaskMemory(max_group_bytes * bag.scale() * group_expansion,
                     "groupByKey");
  if (!c->ok()) return Bag<KG>(c);
  return Bag<KG>(c, std::move(out), bag.scale(), parts);
}

/// Removes duplicate elements (shuffle by element, then per-partition
/// dedup). Requires std::hash-able, equality-comparable elements. See the
/// header comment for `result_scale` (e.g. 1.0 when deduplicating onto a
/// fixed key space such as the grouping keys of an experiment's x-axis).
template <typename T>
Bag<T> Distinct(const Bag<T>& bag, int64_t num_partitions = -1,
                double result_scale = -1.0) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<T>(c);
  bag.Force();  // forcing point
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  const double out_scale = internal::ResolveScale(result_scale, bag.scale());

  // Map-side pre-dedup keeps the shuffle volume at one copy per distinct
  // value per partition (Spark implements distinct via reduceByKey).
  internal::ChargeScanStage(bag, 0.5, "distinct[pre]");
  typename Bag<T>::Partitions pre(bag.partitions().size());
  internal::GuardedParallelFor(c, bag.partitions().size(), [&](std::size_t i) {
    DistinctInto(bag.partitions()[i], &pre[i]);
  });
  Bag<T> pre_bag(c, std::move(pre), out_scale);

  c->AccrueShuffle(RealBagBytes(pre_bag), "distinct");
  typename Bag<T>::Partitions shuffled = internal::BudgetedScatter(
      c, pre_bag.partitions(), static_cast<std::size_t>(parts),
      [&](const T& x) { return internal::PartitionOfKey(x, parts); },
      "distinct");
  const double spill =
      c->SpillFactor(RealBagBytes(pre_bag) /
                     static_cast<double>(c->planning_machines()));
  auto costs = internal::PartitionCosts(c, shuffled, 0.5, out_scale);
  for (auto& cost : costs) cost *= spill;
  c->AccrueStage(costs, /*lineage_depth=*/1,
                 StageContext{"distinct[dedup]", spill});

  typename Bag<T>::Partitions out(static_cast<std::size_t>(parts));
  internal::GuardedParallelFor(c, shuffled.size(), [&](std::size_t i) {
    DistinctInto(shuffled[i], &out[i]);
  });
  return Bag<T>(c, std::move(out), out_scale);
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_SHUFFLE_H_
