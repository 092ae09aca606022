#ifndef MATRYOSHKA_CORE_MULTI_LEVEL_H_
#define MATRYOSHKA_CORE_MULTI_LEVEL_H_

#include <cstdint>
#include <utility>

#include "core/inner_bag.h"
#include "core/inner_scalar.h"
#include "core/lifting_context.h"
#include "core/tag.h"
#include "engine/join.h"
#include "engine/ops.h"

/// Helpers for programs with three or more levels of parallelism (Sec. 7):
/// descending one nesting level (a lifted map over the *elements* of inner
/// bags), joining data across adjacent levels via composite parent tags, and
/// ascending results back to the enclosing level.
namespace matryoshka::core {

/// Lifts every element of every inner bag into its own (child-tagged) UDF
/// invocation — the multi-level analogue of LiftFlatBag. Used when a lifted
/// UDF maps over an inner bag with *another* lifted UDF, e.g. launching one
/// BFS per vertex of every graph component (Sec. 2.2 / Average Distances).
/// Tags of the result are children of the input's tags; the result is an
/// InnerScalar (exactly one element per new tag).
template <typename T>
InnerScalar<T> LiftElements(const InnerBag<T>& bag) {
  auto zipped = engine::ZipWithUniqueId(bag.repr());
  auto repr = engine::Map(
      zipped, [](const std::pair<uint64_t, std::pair<Tag, T>>& p) {
        return std::pair<Tag, T>(p.second.first.Child(p.first),
                                 p.second.second);
      });
  auto tags = engine::Keys(repr);
  const int64_t n = repr.Size();
  LiftingContext ctx(bag.ctx().cluster(), std::move(tags), n,
                     bag.ctx().options());
  return InnerScalar<T>(ctx, std::move(repr));
}

/// Equi-join between a deep (child-level) InnerBag and a shallow
/// (parent-level) static side: a deep element with tag t matches shallow
/// elements with tag t.Parent() and the same key K. This is how
/// per-instance state (e.g. a BFS frontier, depth d) meets per-group data
/// shared by all instances of the group (e.g. the component's edges, depth
/// d-1) without replicating the group data per instance. The shallow side
/// is rekeyed and partitioned once (MakeStaticJoinSide); only the deep
/// (dynamic) side is rekeyed and shuffled per call.
template <typename K, typename V, typename W>
InnerBag<std::pair<K, std::pair<V, W>>> LiftedJoinWithParentStatic(
    const InnerBag<std::pair<K, V>>& deep,
    const StaticJoinSide<K, W>& shallow) {
  using PK = std::pair<Tag, K>;
  auto deep_rekeyed = engine::Map(
      deep.repr(), [](const std::pair<Tag, std::pair<K, V>>& p) {
        return std::pair<PK, std::pair<Tag, V>>(
            PK(p.first.Parent(), p.second.first),
            std::pair<Tag, V>(p.first, p.second.second));
      });
  auto joined = engine::RepartitionJoin(shallow.repr(), deep_rekeyed,
                                        shallow.repr().key_partitions());
  auto out = engine::Map(
      joined,
      [](const std::pair<PK, std::pair<W, std::pair<Tag, V>>>& p) {
        return std::pair<Tag, std::pair<K, std::pair<V, W>>>(
            p.second.second.first,
            std::pair<K, std::pair<V, W>>(
                p.first.second,
                std::pair<V, W>(p.second.second.second, p.second.first)));
      });
  return InnerBag<std::pair<K, std::pair<V, W>>>(deep.ctx(), std::move(out));
}

/// Ascends one nesting level: the per-child-tag scalars of a deep
/// InnerScalar become, per parent tag, an InnerBag of values at the
/// enclosing level (one element per child invocation) — the return path of
/// a nested lifted map.
template <typename T>
InnerBag<T> LowerToParent(const InnerScalar<T>& deep,
                          const LiftingContext& parent_ctx) {
  auto repr = engine::Map(deep.repr(), [](const std::pair<Tag, T>& p) {
    return std::pair<Tag, T>(p.first.Parent(), p.second);
  });
  return InnerBag<T>(parent_ctx, std::move(repr));
}

}  // namespace matryoshka::core

#endif  // MATRYOSHKA_CORE_MULTI_LEVEL_H_
