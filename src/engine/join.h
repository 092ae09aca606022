#ifndef MATRYOSHKA_ENGINE_JOIN_H_
#define MATRYOSHKA_ENGINE_JOIN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/keyed_index.h"
#include "engine/shuffle.h"

/// Binary operators of the flat engine: equi-joins (repartition and
/// broadcast physical implementations — Sec. 8.2 of the paper chooses
/// between these two at runtime) and the left outer join.
///
/// Scale semantics: join outputs take the larger input scale (the join of a
/// data-sized bag with a key-unique, scale-1 side — the common tag join —
/// has data-sized output).
namespace matryoshka::engine {

namespace internal {

/// Join partition-count resolution, Spark-style: an explicit request wins;
/// otherwise adopt the partitioner of an already-key-partitioned input
/// (left side preferred), else the engine default.
template <typename L, typename R>
int64_t ResolveJoinParallelism(Cluster* c, int64_t requested, const Bag<L>& l,
                               const Bag<R>& r) {
  if (requested > 0) return requested;
  if (l.key_partitions() > 0) return l.key_partitions();
  if (r.key_partitions() > 0) return r.key_partitions();
  return c->effective_parallelism();
}

/// Shuffles one join input onto `parts` key partitions, or reuses its
/// existing layout (charging only the scan, no network) when it is already
/// co-partitioned. A co-partitioned side is read in place: the handle shares
/// the bag's partitions instead of copying them.
template <typename K, typename V>
std::shared_ptr<const typename Bag<std::pair<K, V>>::Partitions> JoinSide(
    const Bag<std::pair<K, V>>& side, int64_t parts,
    const char* label = "join[side]") {
  if (AlreadyKeyPartitioned(side, parts)) {
    ChargeScanStage(side, 0.25, label);
    return side.shared_partitions();
  }
  return std::make_shared<const typename Bag<std::pair<K, V>>::Partitions>(
      ShuffleBy(
          side, parts,
          [&](const std::pair<K, V>& x) {
            return PartitionOfKey(x.first, parts);
          },
          0.25, label));
}

/// A join's build side in CSR form, shared by RepartitionJoin,
/// LeftOuterJoin and BroadcastJoin. A count pass numbers the keys in
/// first-occurrence order (KeyedIndex) and counts each key's values; prefix
/// offsets then give key s the range [offsets[s], offsets[s + 1]) of one
/// contiguous value array, filled in arrival order. So a probe yields each
/// key's matches in the order the build side delivered them.
template <typename K, typename W>
class CsrJoinBuild {
 public:
  /// Builds over `n` partitions starting at `parts`, in partition order.
  CsrJoinBuild(const std::vector<std::pair<K, W>>* parts, std::size_t n) {
    std::size_t total = 0;
    for (std::size_t p = 0; p < n; ++p) total += parts[p].size();
    index_.Reserve(total);
    // Count pass. offsets_[s + 1] counts key s's values; slot_of remembers
    // each element's key for the fill pass.
    std::vector<uint32_t> slot_of;
    slot_of.reserve(total);
    offsets_.push_back(0);
    for (std::size_t p = 0; p < n; ++p) {
      for (const auto& [k, w] : parts[p]) {
        const KeyedIndex::Probe probe = index_.Find(k, keys_);
        uint32_t slot = probe.slot;
        if (!probe.found()) {
          slot = index_.Insert(probe);
          keys_.push_back(k);
          offsets_.push_back(0);
        }
        offsets_[slot + 1] += 1;
        slot_of.push_back(slot);
      }
    }
    for (std::size_t s = 1; s < offsets_.size(); ++s) {
      offsets_[s] += offsets_[s - 1];
    }
    // Fill pass, in arrival order.
    values_.resize(total);
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    std::size_t j = 0;
    for (std::size_t p = 0; p < n; ++p) {
      for (const auto& kw : parts[p]) {
        values_[cursor[slot_of[j++]]++] = kw.second;
      }
    }
  }

  /// Positions [first, second) in values() of `key`'s matches; empty when
  /// the build side has no such key. Positions, not pointers:
  /// std::vector<bool> (the control-flow joins against boolean conditions)
  /// has no data().
  std::pair<std::size_t, std::size_t> Probe(const K& key) const {
    const KeyedIndex::Probe probe = index_.Find(key, keys_);
    if (!probe.found()) return {0, 0};
    return {offsets_[probe.slot], offsets_[probe.slot + 1]};
  }

  const std::vector<W>& values() const { return values_; }

 private:
  KeyedIndex index_;
  std::vector<K> keys_;               ///< slot order
  std::vector<std::size_t> offsets_;  ///< keys_.size() + 1 prefix offsets
  std::vector<W> values_;
};

}  // namespace internal

/// Inner equi-join by shuffling both sides on the key, then hash-joining
/// each co-partition (build side = right). Inputs already partitioned on
/// the key with a matching partition count are not re-shuffled.
template <typename K, typename V, typename W>
Bag<std::pair<K, std::pair<V, W>>> RepartitionJoin(
    const Bag<std::pair<K, V>>& left, const Bag<std::pair<K, W>>& right,
    int64_t num_partitions = -1) {
  using Out = std::pair<K, std::pair<V, W>>;
  MATRYOSHKA_CHECK(left.cluster() == right.cluster());
  Cluster* c = left.cluster();
  if (!c->ok()) return Bag<Out>(c);
  // Joins are forcing points for both inputs' pending fused chains.
  left.Force();
  right.Force();
  const int64_t parts =
      internal::ResolveJoinParallelism(c, num_partitions, left, right);
  const double out_scale = std::max(left.scale(), right.scale());

  const auto ls_parts = internal::JoinSide(left, parts, "join[left]");
  const auto rs_parts = internal::JoinSide(right, parts, "join[right]");
  const auto& ls = *ls_parts;
  const auto& rs = *rs_parts;
  const double build_bytes =
      RealBagBytes(right) / static_cast<double>(c->planning_machines());
  const double spill = c->SpillFactor(build_bytes);

  std::vector<double> costs(static_cast<std::size_t>(parts));
  for (int64_t i = 0; i < parts; ++i) {
    costs[static_cast<std::size_t>(i)] =
        spill * c->ComputeCost(static_cast<double>(ls[i].size()) *
                                       left.scale() +
                                   static_cast<double>(rs[i].size()) *
                                       right.scale(),
                               1.0);
  }
  c->AccrueStage(costs, /*lineage_depth=*/1,
                 StageContext{"repartitionJoin", spill});

  typename Bag<Out>::Partitions out(static_cast<std::size_t>(parts));
  internal::GuardedParallelFor(
      c, static_cast<std::size_t>(parts), [&](std::size_t i) {
        const internal::CsrJoinBuild<K, W> build(&rs[i], 1);
        for (const auto& [k, v] : ls[i]) {
          const auto [first, last] = build.Probe(k);
          for (std::size_t j = first; j < last; ++j) {
            out[i].emplace_back(k, std::pair<V, W>(v, build.values()[j]));
          }
        }
      });
  return Bag<Out>(c, std::move(out), out_scale, parts);
}

/// Inner equi-join that broadcasts the (small) right side to every machine
/// and probes it from the left side without any shuffle. Fails with
/// OutOfMemory when the broadcast build table does not fit on one machine —
/// unless degraded re-planning is on, in which case a build side that no
/// longer fits the (possibly shrunken) broadcast budget falls back to a
/// repartition join instead of poisoning the run.
template <typename K, typename V, typename W>
Bag<std::pair<K, std::pair<V, W>>> BroadcastJoin(
    const Bag<std::pair<K, V>>& left, const Bag<std::pair<K, W>>& right) {
  using Out = std::pair<K, std::pair<V, W>>;
  MATRYOSHKA_CHECK(left.cluster() == right.cluster());
  Cluster* c = left.cluster();
  if (!c->ok()) return Bag<Out>(c);
  left.Force();   // forcing point for both inputs
  right.Force();
  const double out_scale = std::max(left.scale(), right.scale());

  // Hash tables over the broadcast data cost noticeably more than the raw
  // payload; 2x is a conservative stand-in for JVM object overhead.
  const double build_bytes = RealBagBytes(right) * 2.0;
  // Loop-invariant hoisting: a payload already broadcast in this run is
  // still resident on every machine, so re-broadcasting it (the classic
  // per-iteration tax of driver loops joining against an invariant side)
  // would pay transfer and memory for bytes the cluster already holds.
  // Skip the broadcast charge on a hit, but keep the per-task build cost
  // below: every probe task still re-builds its hash table from the
  // resident payload. Registration happens only after a SUCCESSFUL
  // broadcast: an OOM fallback leaves nothing resident.
  const auto payload = right.shared_partitions();
  if (c->BroadcastResident(payload.get())) {
    c->NoteHoistedBroadcastReuse();
  } else if (c->config().recovery.degraded_replanning) {
    Status st = c->TryAccrueBroadcast(build_bytes, "broadcastJoin");
    if (st.IsOutOfMemory()) {
      c->NotePlanFallback("broadcastJoin -> repartitionJoin");
      return RepartitionJoin(left, right);
    }
    if (!c->ok()) return Bag<Out>(c);
    c->NoteBroadcastResident(payload);
  } else {
    c->AccrueBroadcast(build_bytes, "broadcastJoin");
    if (!c->ok()) return Bag<Out>(c);
    c->NoteBroadcastResident(payload);
  }

  // The broadcast build table stays single-threaded: it is one global CSR
  // build over the (small by contract) right side; per-partition probe work
  // below is where the real time goes, and that runs on the pool.
  const internal::CsrJoinBuild<K, W> build(right.partitions().data(),
                                           right.partitions().size());
  // Every probe task pays for building its hash table over the broadcast
  // data (Spark deserializes the broadcast per executor): charge the probe
  // scan plus a per-task build of right.RealSize() elements.
  {
    std::vector<double> costs = internal::ScanCosts(left, 1.0);
    const double build_cost = c->ComputeCost(right.RealSize(), 1.0);
    for (auto& cost : costs) cost += build_cost;
    c->mutable_metrics().elements_processed +=
        static_cast<int64_t>(left.RealSize());
    c->AccrueStage(costs, left.lineage_depth(),
                   StageContext{"broadcastJoin[probe]"});
  }
  typename Bag<Out>::Partitions out(left.partitions().size());
  internal::GuardedParallelFor(c, left.partitions().size(), [&](std::size_t i) {
    for (const auto& [k, v] : left.partitions()[i]) {
      const auto [first, last] = build.Probe(k);
      for (std::size_t j = first; j < last; ++j) {
        out[i].emplace_back(k, std::pair<V, W>(v, build.values()[j]));
      }
    }
  });
  // A broadcast join is map-side: the left layout (and partitioner) stays,
  // and so does the left lineage chain (no stage boundary).
  return internal::MaybeAutoCheckpoint(Bag<Out>(
      c, std::move(out), out_scale, left.key_partitions(),
      left.lineage_depth() + 1));
}

/// Left outer equi-join (repartition implementation): every left element
/// appears once per matching right element, or once with nullopt when the
/// key has no match. Used by lifted count/aggregations to produce results
/// for empty inner bags (Sec. 4.4).
template <typename K, typename V, typename W>
Bag<std::pair<K, std::pair<V, std::optional<W>>>> LeftOuterJoin(
    const Bag<std::pair<K, V>>& left, const Bag<std::pair<K, W>>& right,
    int64_t num_partitions = -1) {
  using Out = std::pair<K, std::pair<V, std::optional<W>>>;
  MATRYOSHKA_CHECK(left.cluster() == right.cluster());
  Cluster* c = left.cluster();
  if (!c->ok()) return Bag<Out>(c);
  left.Force();   // forcing point for both inputs
  right.Force();
  const int64_t parts =
      internal::ResolveJoinParallelism(c, num_partitions, left, right);
  const double out_scale = std::max(left.scale(), right.scale());

  const auto ls_parts = internal::JoinSide(left, parts, "leftOuterJoin[left]");
  const auto rs_parts =
      internal::JoinSide(right, parts, "leftOuterJoin[right]");
  const auto& ls = *ls_parts;
  const auto& rs = *rs_parts;
  std::vector<double> costs(static_cast<std::size_t>(parts));
  for (int64_t i = 0; i < parts; ++i) {
    costs[static_cast<std::size_t>(i)] = c->ComputeCost(
        static_cast<double>(ls[i].size()) * left.scale() +
            static_cast<double>(rs[i].size()) * right.scale(),
        1.0);
  }
  c->AccrueStage(costs, /*lineage_depth=*/1, StageContext{"leftOuterJoin"});

  typename Bag<Out>::Partitions out(static_cast<std::size_t>(parts));
  internal::GuardedParallelFor(
      c, static_cast<std::size_t>(parts), [&](std::size_t i) {
        const internal::CsrJoinBuild<K, W> build(&rs[i], 1);
        // Every left element yields at least one row.
        out[i].reserve(ls[i].size());
        for (const auto& [k, v] : ls[i]) {
          const auto [first, last] = build.Probe(k);
          if (first == last) {
            out[i].emplace_back(
                k, std::pair<V, std::optional<W>>(v, std::nullopt));
          }
          for (std::size_t j = first; j < last; ++j) {
            out[i].emplace_back(
                k, std::pair<V, std::optional<W>>(v, build.values()[j]));
          }
        }
      });
  return Bag<Out>(c, std::move(out), out_scale, parts);
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_JOIN_H_
