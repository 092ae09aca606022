#ifndef MATRYOSHKA_CORE_CLOSURES_H_
#define MATRYOSHKA_CORE_CLOSURES_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "core/inner_bag.h"
#include "core/inner_scalar.h"
#include "core/optimizer.h"
#include "core/tag_join.h"
#include "engine/bag.h"
#include "engine/join.h"
#include "engine/ops.h"

/// Lifted operations for UDFs that capture outside variables (closures,
/// Sec. 5), including the half-lifted operations whose physical strategy the
/// optimizer picks at runtime (Sec. 8.3).
namespace matryoshka::core {

/// Unlifted-UDF closure case (Sec. 5.1): a map whose UDF is not lifted but
/// captures a variable that became an InnerScalar (e.g. PageRank's
/// initWeight). Modeled as a two-input operation: the primary InnerBag is
/// joined with the closure InnerScalar on the tag (physical join chosen per
/// Sec. 8.2), and the UDF receives the matching closure value as an extra
/// argument: pages.mapWithClosure(initWeight, (x, clos) => ...).
template <typename E, typename C, typename F>
auto MapWithClosure(const InnerBag<E>& primary, const InnerScalar<C>& closure,
                    F f, double weight = 1.0)
    -> InnerBag<std::decay_t<
        decltype(f(std::declval<const E&>(), std::declval<const C&>()))>> {
  using U = std::decay_t<
      decltype(f(std::declval<const E&>(), std::declval<const C&>()))>;
  // The closure's context carries the live tag set (it may be narrower than
  // the primary's, e.g. inside a lifted loop), so its size drives the join
  // choice and the result context.
  auto joined = TagJoin(closure.ctx(), primary.repr(), closure.repr());
  auto out = engine::Map(
      joined,
      [f](const std::pair<Tag, std::pair<E, C>>& p) {
        return std::pair<Tag, U>(p.first,
                                 f(p.second.first, p.second.second));
      },
      weight);
  return InnerBag<U>(closure.ctx(), std::move(out));
}

/// Lifted-UDF closure case (Sec. 5.2 + 8.3): the primary input is a *plain*
/// bag defined outside the lifted UDF (e.g. the training points shared by
/// every K-means run), the closure is an InnerScalar from inside it (e.g.
/// the current means of every run). Semantically this replicates the
/// primary bag for every tag — a cross product — and applies f.
///
/// The optimizer chooses which side to broadcast (CrossStrategy): the
/// InnerScalar when it has one partition (the common case) or whichever
/// side the size estimator says is smaller; a forced wrong choice reproduces
/// the crashes/slowdowns of Fig. 8 (right).
template <typename E, typename C, typename F>
auto HalfLiftedMapWithClosure(const engine::Bag<E>& primary,
                              const InnerScalar<C>& closure, F f,
                              double weight = 1.0)
    -> InnerBag<std::decay_t<
        decltype(f(std::declval<const E&>(), std::declval<const C&>()))>> {
  using U = std::decay_t<
      decltype(f(std::declval<const E&>(), std::declval<const C&>()))>;
  const LiftingContext& ctx = closure.ctx();
  engine::Cluster* c = ctx.cluster();
  using Out = engine::Bag<std::pair<Tag, U>>;
  if (!c->ok()) return InnerBag<U>(ctx, Out(c));

  const double out_scale = primary.scale() * closure.repr().scale();
  const CrossStrategy strategy = ctx.optimizer().ChooseCross(
      closure.repr().num_partitions(), engine::RealBagBytes(closure.repr()),
      engine::RealBagBytes(primary));

  if (strategy == CrossStrategy::kBroadcastScalar) {
    // Ship all (tag, closure-value) pairs to every machine; each primary
    // partition emits one output per (element, tag). A payload already
    // broadcast in this run is resident and ships for free (loop-invariant
    // hoisting — see engine::BroadcastJoin); the per-partition cross costs
    // below are still paid.
    const auto payload = closure.repr().shared_partitions();
    if (c->BroadcastResident(payload.get())) {
      c->NoteHoistedBroadcastReuse();
    } else {
      c->AccrueBroadcast(engine::RealBagBytes(closure.repr()) * 2.0,
                         "cross[scalar]");
      if (!c->ok()) return InnerBag<U>(ctx, Out(c));
      c->NoteBroadcastResident(payload);
    }
    std::vector<std::pair<Tag, C>> clos = closure.repr().ToVector();
    std::vector<double> costs;
    costs.reserve(primary.partitions().size());
    for (const auto& part : primary.partitions()) {
      costs.push_back(c->ComputeCost(
          static_cast<double>(part.size() * clos.size()) * out_scale,
          weight));
    }
    c->AccrueStage(costs, /*lineage_depth=*/1,
                   engine::StageContext{"cross[probe-scalar]"});
    typename Out::Partitions out(primary.partitions().size());
    engine::internal::GuardedParallelFor(
        c, primary.partitions().size(), [&](std::size_t i) {
          out[i].reserve(primary.partitions()[i].size() * clos.size());
          for (const auto& x : primary.partitions()[i]) {
            for (const auto& [t, cv] : clos) out[i].emplace_back(t, f(x, cv));
          }
        });
    return InnerBag<U>(ctx, Out(c, std::move(out), out_scale));
  }

  // kBroadcastPrimary: ship the primary bag everywhere; each closure
  // partition emits one output per (tag, element). Same residency hoisting
  // as above — the invariant primary bag of a lifted loop (e.g. the K-means
  // training points shared by every hyperparameter run and every iteration)
  // ships once per run, not once per call.
  const auto payload = primary.shared_partitions();
  if (c->BroadcastResident(payload.get())) {
    c->NoteHoistedBroadcastReuse();
  } else {
    c->AccrueBroadcast(engine::RealBagBytes(primary) * 2.0, "cross[primary]");
    if (!c->ok()) return InnerBag<U>(ctx, Out(c));
    c->NoteBroadcastResident(payload);
  }
  std::vector<E> prim = primary.ToVector();
  std::vector<double> costs;
  costs.reserve(closure.repr().partitions().size());
  for (const auto& part : closure.repr().partitions()) {
    costs.push_back(c->ComputeCost(
        static_cast<double>(part.size() * prim.size()) * out_scale, weight));
  }
  c->AccrueStage(costs, /*lineage_depth=*/1,
                 engine::StageContext{"cross[probe-primary]"});
  typename Out::Partitions out(closure.repr().partitions().size());
  engine::internal::GuardedParallelFor(
      c, closure.repr().partitions().size(), [&](std::size_t i) {
        out[i].reserve(closure.repr().partitions()[i].size() * prim.size());
        for (const auto& [t, cv] : closure.repr().partitions()[i]) {
          for (const auto& x : prim) out[i].emplace_back(t, f(x, cv));
        }
      });
  return InnerBag<U>(ctx, Out(c, std::move(out), out_scale));
}

/// Half-lifted equi-join (Sec. 5.2 code listing): joins an InnerBag of
/// (K, V) pairs from inside the lifted UDF with a plain bag of (K, W) pairs
/// from outside it, on K. The tag rides along in the value:
///   rekeyed = left.repr.map{(t,(k,v)) => (k,(t,v))}
///   joined  = rekeyed join right
///   result  = joined.map{(k,((t,v),w)) => (t,(k,(v,w)))}
template <typename K, typename V, typename W>
InnerBag<std::pair<K, std::pair<V, W>>> HalfLiftedJoin(
    const InnerBag<std::pair<K, V>>& left,
    const engine::Bag<std::pair<K, W>>& right, int64_t num_partitions = -1) {
  auto rekeyed = engine::Map(
      left.repr(), [](const std::pair<Tag, std::pair<K, V>>& p) {
        return std::pair<K, std::pair<Tag, V>>(
            p.second.first, std::pair<Tag, V>(p.first, p.second.second));
      });
  auto joined = engine::RepartitionJoin(rekeyed, right, num_partitions);
  auto out = engine::Map(
      joined,
      [](const std::pair<K, std::pair<std::pair<Tag, V>, W>>& p) {
        return std::pair<Tag, std::pair<K, std::pair<V, W>>>(
            p.second.first.first,
            std::pair<K, std::pair<V, W>>(
                p.first,
                std::pair<V, W>(p.second.first.second, p.second.second)));
      });
  return InnerBag<std::pair<K, std::pair<V, W>>>(left.ctx(), std::move(out));
}

}  // namespace matryoshka::core

#endif  // MATRYOSHKA_CORE_CLOSURES_H_
