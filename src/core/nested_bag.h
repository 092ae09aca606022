#ifndef MATRYOSHKA_CORE_NESTED_BAG_H_
#define MATRYOSHKA_CORE_NESTED_BAG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "core/inner_bag.h"
#include "core/inner_scalar.h"
#include "core/lifting_context.h"
#include "core/optimizer.h"
#include "core/tag.h"
#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/keyed_index.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

namespace matryoshka::core {

/// The lifted representation of a nested bag outside a UDF (Sec. 4.5):
/// Bag[(O, Bag[I])] becomes an InnerScalar[T, O] holding the per-group
/// scalar component plus an InnerBag[T, I] holding all inner-bag elements,
/// sharing one tag space.
///
/// Example: {(fruit, {apple, orange}), (animal, {dog, cat})} is represented
/// by the InnerScalar {(0, fruit), (1, animal)} and the InnerBag
/// {(0, apple), (0, orange), (1, dog), (1, cat)}.
template <typename O, typename I>
class NestedBag {
 public:
  NestedBag(InnerScalar<O> keys, InnerBag<I> values)
      : keys_(std::move(keys)), values_(std::move(values)) {}

  const LiftingContext& ctx() const { return keys_.ctx(); }
  /// The per-group scalar components (e.g. the grouping keys).
  const InnerScalar<O>& keys() const { return keys_; }
  /// All elements of all inner bags, tagged by group.
  const InnerBag<I>& values() const { return values_; }

 private:
  InnerScalar<O> keys_;
  InnerBag<I> values_;
};

namespace internal {

/// Deterministic tag for a grouping key: its 64-bit mixed hash. This
/// avoids the extra shuffle a zipWithUniqueId-based tag assignment of
/// grouped keys would need. Two distinct keys with equal hashes would share
/// a tag, and with it a group; the grouping primitives below detect that
/// (FailOnTagCollision) instead of merging the groups.
template <typename K>
Tag TagOfKey(const K& key) {
  return Tag::Root(static_cast<uint64_t>(Hasher{}(key)));
}

/// The child tag of grouping key `key` under `parent`: the top
/// Tag::kChildIdBits bits of its mixed hash. Keys whose hashes differ only
/// in the dropped bits share a tag, and fail like any other collision.
template <typename K>
Tag ChildTagOfKey(const Tag& parent, const K& key) {
  return parent.Child(static_cast<uint64_t>(Hasher{}(key)) >>
                      (64 - Tag::kChildIdBits));
}

/// Fails the cluster with Unsupported when two elements of the distinct
/// grouping-key bag `keys` map to one tag under `tag_of`. Colliding keys
/// need not share a partition of `keys`: a child tag keeps only the top
/// Tag::kChildIdBits bits of the key hash that placed its key. So one index
/// takes every tag, on the driver and without a charged stage.
template <typename T, typename TagOf>
void FailOnTagCollision(const engine::Bag<T>& keys, TagOf tag_of) {
  engine::Cluster* c = keys.cluster();
  if (!c->ok()) return;
  engine::KeyedIndex index;
  std::vector<Tag> seen;
  for (const auto& part : keys.partitions()) {
    for (const T& key : part) {
      const Tag tag = tag_of(key);
      const engine::KeyedIndex::Probe probe = index.Find(tag, seen);
      if (probe.found()) {
        c->Fail(Status::Unsupported("distinct grouping keys share tag " +
                                    tag.ToString() +
                                    " (colliding key hashes)"));
        return;
      }
      index.Insert(probe);
      seen.push_back(tag);
    }
  }
}

}  // namespace internal

/// The parsing phase's replacement for a groupByKey whose result flows into
/// nested-parallel operations (Listing 2 line 3): groups `bag` by key but
/// produces the flat NestedBag representation directly — the inner bags are
/// never materialized per-task, so this cannot OOM on big or skewed groups
/// the way the flat GroupByKey can.
///
/// The number of groups (= the InnerScalar size, Sec. 8.1) is taken from the
/// engine's stage statistics of the distinct() that computes the key set —
/// information a dataflow engine has for free after running the stage.
template <typename K, typename V>
NestedBag<K, V> GroupByKeyIntoNestedBag(const engine::Bag<std::pair<K, V>>& bag,
                                        OptimizerOptions options = {}) {
  engine::Cluster* cluster = bag.cluster();
  // The number of groups is a property of the key space, not of the data
  // volume: the key set is a scale-1 bag (its synthetic cardinality is the
  // real group count — this is also why the InnerScalar size is exact).
  auto keys = engine::Distinct(engine::Keys(bag), /*num_partitions=*/-1,
                               /*result_scale=*/1.0);
  internal::FailOnTagCollision(
      keys, [](const K& k) { return internal::TagOfKey(k); });
  auto keys_repr = engine::Map(keys, [](const K& k) {
    return std::pair<Tag, K>(internal::TagOfKey(k), k);
  });
  const int64_t num_tags = keys_repr.Size();
  auto tags = engine::Keys(keys_repr);
  LiftingContext ctx(cluster, tags, num_tags, options);
  auto values_repr = engine::Map(bag, [](const std::pair<K, V>& p) {
    return std::pair<Tag, V>(internal::TagOfKey(p.first), p.second);
  });
  return NestedBag<K, V>(InnerScalar<K>(ctx, std::move(keys_repr)),
                         InnerBag<V>(ctx, std::move(values_repr)));
}

/// Multi-level variant (Sec. 7): groups an InnerBag *inside* a lifted UDF,
/// producing a NestedBag one nesting level deeper. Tags of the new level are
/// children of the enclosing invocation's tag, so lifted operations keep
/// working unchanged on the composite keys.
template <typename K, typename V>
NestedBag<K, V> LiftedGroupByKeyIntoNestedBag(
    const InnerBag<std::pair<K, V>>& bag) {
  const LiftingContext& outer = bag.ctx();
  auto keys_repr_outer = engine::Distinct(
      engine::Map(bag.repr(),
                  [](const std::pair<Tag, std::pair<K, V>>& p) {
                    return std::pair<Tag, K>(
                        internal::ChildTagOfKey(p.first, p.second.first),
                        p.second.first);
                  }),
      /*num_partitions=*/-1, /*result_scale=*/1.0);
  internal::FailOnTagCollision(
      keys_repr_outer, [](const std::pair<Tag, K>& p) { return p.first; });
  const int64_t num_tags = keys_repr_outer.Size();
  auto tags = engine::Keys(keys_repr_outer);
  LiftingContext ctx = outer.Narrowed(tags, num_tags);
  auto values_repr =
      engine::Map(bag.repr(), [](const std::pair<Tag, std::pair<K, V>>& p) {
        return std::pair<Tag, V>(
            internal::ChildTagOfKey(p.first, p.second.first), p.second.second);
      });
  return NestedBag<K, V>(InnerScalar<K>(ctx, std::move(keys_repr_outer)),
                         InnerBag<V>(ctx, std::move(values_repr)));
}

/// Lifts a flat bag for a mapWithLiftedUDF over a *non-nested* input (the
/// hyperparameter-optimization pattern of Sec. 2.3): every element becomes
/// one UDF invocation, with tags assigned by zipWithUniqueId (Sec. 4.3).
template <typename T>
InnerScalar<T> LiftFlatBag(const engine::Bag<T>& bag,
                           OptimizerOptions options = {}) {
  auto zipped = engine::ZipWithUniqueId(bag);
  auto repr = engine::Map(zipped, [](const std::pair<uint64_t, T>& p) {
    return std::pair<Tag, T>(Tag::Root(p.first), p.second);
  });
  auto tags = engine::Keys(repr);
  LiftingContext ctx(bag.cluster(), tags, bag.Size(), options);
  return InnerScalar<T>(ctx, std::move(repr));
}

/// The lifted map over a NestedBag (Listing 2 line 4): in contrast to a
/// normal map, the UDF is called exactly *once*, at lowering time, and its
/// single execution operates on all groups at the same time through the
/// InnerScalar/InnerBag arguments. Returns whatever the UDF returns
/// (typically an InnerScalar or InnerBag).
template <typename O, typename I, typename F>
auto MapWithLiftedUdf(const NestedBag<O, I>& nb, F udf) {
  return udf(nb.ctx(), nb.keys(), nb.values());
}

/// The lifted map over a flat bag: one UDF invocation per element, tags via
/// zipWithUniqueId; the UDF again runs once, on the lifted input.
template <typename T, typename F>
auto MapWithLiftedUdf(const engine::Bag<T>& bag, F udf,
                      OptimizerOptions options = {}) {
  InnerScalar<T> lifted = LiftFlatBag(bag, options);
  return udf(lifted.ctx(), lifted);
}

/// Attaches the group keys to a per-group result: the flat bag of
/// (key, result) pairs, via a tag join (a BinaryScalarOp).
template <typename O, typename S>
engine::Bag<std::pair<O, S>> ZipWithKeys(const InnerScalar<O>& keys,
                                         const InnerScalar<S>& result) {
  auto paired = BinaryScalarOp(keys, result, [](const O& k, const S& s) {
    return std::pair<O, S>(k, s);
  });
  return paired.Flatten();
}

}  // namespace matryoshka::core

#endif  // MATRYOSHKA_CORE_NESTED_BAG_H_
