#ifndef MATRYOSHKA_CORE_CONTROL_FLOW_H_
#define MATRYOSHKA_CORE_CONTROL_FLOW_H_

#include <cstdint>
#include <utility>

#include "core/inner_bag.h"
#include "core/inner_scalar.h"
#include "core/lifting_context.h"
#include "core/tag_join.h"
#include "engine/bag.h"
#include "engine/iterate.h"
#include "engine/ops.h"

/// Lifted control flow (Sec. 6): while loops and if statements that would
/// have run inside the original UDF run *once*, over all invocations at the
/// same time. The parsing phase turns control flow into these higher-order
/// functions; the lowering phase executes them.
namespace matryoshka::core {

namespace internal {

/// Shared machinery of the lifted do-while loop (Listing 4) over a flat
/// representation Bag[(Tag, X)] — used for both InnerBag-valued and
/// InnerScalar-valued loop state.
///
/// Iteration i executes iteration i of *all* original loops that have not
/// finished yet:
///  (P1) data of finished loops is discarded by joining the body output
///       with the lifted exit condition on the tag and filtering,
///  (P2) the discarded parts are saved into the result bag as they finish,
///  (P3) the lifted loop exits when no tag continues.
/// `body(ctx, repr, iteration)` returns the body output and the lifted exit
/// condition (true = continue). The convergence check on the continuing
/// tags is the engine action that Listing 4 line 9 performs (notEmpty) and
/// is charged one job per iteration — independent of the number of inner
/// computations, which is the core of Matryoshka's advantage over the
/// inner-parallel workaround. The loop itself runs through engine::Iterate:
/// the check is answered in-engine by a fused FilterMapCount (no
/// driver-side Count round-trip, no materialized continuing-tag
/// intermediate) that charges exactly what the Filter + Map + Count it
/// replaces would.
template <typename X, typename Body>
std::pair<LiftingContext, engine::Bag<std::pair<Tag, X>>> LiftedWhileRepr(
    LiftingContext ctx, engine::Bag<std::pair<Tag, X>> body_in, Body body,
    int64_t max_iterations, const char* label = "lifted-while") {
  using TaggedX = std::pair<Tag, X>;
  engine::Cluster* cluster = ctx.cluster();
  const LiftingContext result_ctx = ctx;

  struct LoopState {
    LiftingContext ctx;
    engine::Bag<TaggedX> body_in;
    /// Exit condition of the last body run (consumed by the convergence
    /// step after each iteration).
    engine::Bag<std::pair<Tag, bool>> cond;
    engine::Bag<TaggedX> result;
  };
  LoopState state{ctx, std::move(body_in),
                  engine::Bag<std::pair<Tag, bool>>(cluster),
                  engine::Bag<TaggedX>(cluster)};

  engine::IterateOptions options;
  options.max_iterations = max_iterations;
  options.label = label;
  options.exhausted = [max_iterations](int64_t) {
    return Status::Cancelled("lifted while loop exceeded max_iterations = " +
                             std::to_string(max_iterations));
  };

  state = engine::Iterate(
      cluster, std::move(state),
      [&body](LoopState s, int64_t iteration) {
        auto [body_out, cond] = body(s.ctx, s.body_in, iteration);
        auto with_cond = TagJoin(s.ctx, body_out, cond);
        // Route continuing vs finished data with partitioning-preserving
        // filter + mapValues, so a repartition-joined state stays
        // tag-partitioned into the next iteration.
        s.body_in = engine::MapValues(
            engine::Filter(with_cond,
                           [](const std::pair<Tag, std::pair<X, bool>>& p) {
                             return p.second.second;
                           }),
            [](const std::pair<X, bool>& p) { return p.first; });
        auto finished = engine::MapValues(
            engine::Filter(with_cond,
                           [](const std::pair<Tag, std::pair<X, bool>>& p) {
                             return !p.second.second;
                           }),
            [](const std::pair<X, bool>& p) { return p.first; });
        s.result = engine::Union(s.result, finished);
        s.cond = std::move(cond);
        return s;
      },
      [](LoopState* s, int64_t) {
        auto cont = engine::FilterMapCount(
            s->cond,
            [](const std::pair<Tag, bool>& p) { return p.second; },
            [](const std::pair<Tag, bool>& p) { return p.first; });
        if (cont.count == 0) return true;
        s->ctx = s->ctx.Narrowed(std::move(cont.mapped), cont.count);
        return false;
      },
      options);
  return {result_ctx, std::move(state.result)};
}

}  // namespace internal

/// Lifted while loop over InnerBag-valued state (e.g. the rank bag of every
/// PageRank group). `body(ctx, state, iteration)` returns the next state and
/// the lifted exit condition (true = this tag's loop continues). The result
/// holds, for every tag, the state at the iteration where that tag's loop
/// exited.
template <typename S, typename Body>
InnerBag<S> LiftedWhile(const InnerBag<S>& initial, Body body,
                        int64_t max_iterations = 1'000'000,
                        const char* label = "lifted-while") {
  auto wrapped = [&body](const LiftingContext& ctx,
                         const engine::Bag<std::pair<Tag, S>>& repr,
                         int64_t iteration) {
    InnerBag<S> state(ctx, repr);
    auto [next, cond] = body(ctx, state, iteration);
    return std::pair<engine::Bag<std::pair<Tag, S>>,
                     engine::Bag<std::pair<Tag, bool>>>(next.repr(),
                                                        cond.repr());
  };
  auto [ctx, result] = internal::LiftedWhileRepr<S>(
      initial.ctx(), initial.repr(), wrapped, max_iterations, label);
  return InnerBag<S>(ctx, std::move(result));
}

/// Lifted while loop over InnerScalar-valued state (e.g. the means of every
/// K-means run, or an iteration counter). Same contract as LiftedWhile.
template <typename S, typename Body>
InnerScalar<S> LiftedWhileScalar(const InnerScalar<S>& initial, Body body,
                                 int64_t max_iterations = 1'000'000,
                                 const char* label = "lifted-while") {
  auto wrapped = [&body](const LiftingContext& ctx,
                         const engine::Bag<std::pair<Tag, S>>& repr,
                         int64_t iteration) {
    InnerScalar<S> state(ctx, repr);
    auto [next, cond] = body(ctx, state, iteration);
    return std::pair<engine::Bag<std::pair<Tag, S>>,
                     engine::Bag<std::pair<Tag, bool>>>(next.repr(),
                                                        cond.repr());
  };
  auto [ctx, result] = internal::LiftedWhileRepr<S>(
      initial.ctx(), initial.repr(), wrapped, max_iterations, label);
  return InnerScalar<S>(ctx, std::move(result));
}

/// Lifted if statement over InnerBag-valued data (Sec. 6.2): executes *both*
/// branches, each over only the tags whose condition routes there, and
/// unions the results. Branches receive the narrowed state and context.
/// `then_f`/`else_f`: (const InnerBag<S>&) -> InnerBag<S>.
template <typename S, typename ThenF, typename ElseF>
InnerBag<S> LiftedIf(const InnerScalar<bool>& cond, const InnerBag<S>& input,
                     ThenF then_f, ElseF else_f) {
  const LiftingContext& ctx = input.ctx();
  auto with_cond = TagJoin(ctx, input.repr(), cond.repr());

  auto route = [&](bool want) {
    auto repr = engine::Map(
        engine::Filter(with_cond,
                       [want](const std::pair<Tag, std::pair<S, bool>>& p) {
                         return p.second.second == want;
                       }),
        [](const std::pair<Tag, std::pair<S, bool>>& p) {
          return std::pair<Tag, S>(p.first, p.second.first);
        });
    auto tags = engine::Map(
        engine::Filter(cond.repr(),
                       [want](const std::pair<Tag, bool>& p) {
                         return p.second == want;
                       }),
        [](const std::pair<Tag, bool>& p) { return p.first; });
    const int64_t n = tags.Size();
    return InnerBag<S>(ctx.Narrowed(std::move(tags), n), std::move(repr));
  };

  InnerBag<S> then_out = then_f(route(true));
  InnerBag<S> else_out = else_f(route(false));
  return InnerBag<S>(ctx,
                     engine::Union(then_out.repr(), else_out.repr()));
}

/// Lifted if statement over InnerScalar-valued data. Branches:
/// (const InnerScalar<S>&) -> InnerScalar<S>.
template <typename S, typename ThenF, typename ElseF>
InnerScalar<S> LiftedIfScalar(const InnerScalar<bool>& cond,
                              const InnerScalar<S>& input, ThenF then_f,
                              ElseF else_f) {
  const LiftingContext& ctx = input.ctx();
  auto with_cond = TagJoin(ctx, input.repr(), cond.repr());

  auto route = [&](bool want) {
    auto repr = engine::Map(
        engine::Filter(with_cond,
                       [want](const std::pair<Tag, std::pair<S, bool>>& p) {
                         return p.second.second == want;
                       }),
        [](const std::pair<Tag, std::pair<S, bool>>& p) {
          return std::pair<Tag, S>(p.first, p.second.first);
        });
    const int64_t n = repr.Size();
    auto tags = engine::Keys(repr);
    return InnerScalar<S>(ctx.Narrowed(std::move(tags), n), std::move(repr));
  };

  InnerScalar<S> then_out = then_f(route(true));
  InnerScalar<S> else_out = else_f(route(false));
  return InnerScalar<S>(ctx,
                        engine::Union(then_out.repr(), else_out.repr()));
}

}  // namespace matryoshka::core

#endif  // MATRYOSHKA_CORE_CONTROL_FLOW_H_
