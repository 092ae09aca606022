#include "workloads/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "baselines/baselines.h"
#include "common/logging.h"
#include "core/matryoshka.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

namespace matryoshka::workloads {

namespace {

using datagen::Means;
using datagen::Point;
using engine::Bag;
using engine::Cluster;

double SquaredDistance(const Point& a, const Point& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

/// Accumulated assignment statistics of one centroid.
struct CentroidAgg {
  Point sum{};
  int64_t count = 0;
  double sq_dist_sum = 0.0;

  void Add(const CentroidAgg& o) {
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += o.sum[i];
    count += o.count;
    sq_dist_sum += o.sq_dist_sum;
  }
};

/// Per-run partial state gathered from the per-centroid aggregates; fixed
/// size so it stays trivially copyable for shuffling/size estimation.
struct PartialAggs {
  std::array<CentroidAgg, kMaxK> aggs{};
};

/// The loop state of one K-means run in the lifted program.
struct LoopState {
  std::array<Point, kMaxK> means{};
  int64_t k = 0;
  int64_t iteration = 0;
  double shift = std::numeric_limits<double>::infinity();
  double inertia = 0.0;
};

LoopState MakeInitialState(const Means& init) {
  LoopState s;
  MATRYOSHKA_CHECK(static_cast<int64_t>(init.size()) <= kMaxK);
  s.k = static_cast<int64_t>(init.size());
  for (std::size_t i = 0; i < init.size(); ++i) s.means[i] = init[i];
  return s;
}

Means StateMeans(const LoopState& s) {
  Means m(static_cast<std::size_t>(s.k));
  for (int64_t i = 0; i < s.k; ++i) m[static_cast<std::size_t>(i)] = s.means[i];
  return m;
}

std::pair<int64_t, CentroidAgg> AssignPointKeyed(const Point& p,
                                                 const LoopState& st) {
  int64_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i < st.k; ++i) {
    const double d = SquaredDistance(p, st.means[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  CentroidAgg agg;
  agg.sum = p;
  agg.count = 1;
  agg.sq_dist_sum = best_d;
  return {best, agg};
}

/// Advances one run's state given the gathered per-centroid aggregates.
LoopState AdvanceState(const LoopState& st, const PartialAggs& partial) {
  LoopState next = st;
  next.iteration = st.iteration + 1;
  next.shift = 0.0;
  next.inertia = 0.0;
  for (int64_t i = 0; i < st.k; ++i) {
    const CentroidAgg& a = partial.aggs[static_cast<std::size_t>(i)];
    next.inertia += a.sq_dist_sum;
    if (a.count == 0) continue;  // empty cluster keeps its centroid
    Point updated;
    for (std::size_t d = 0; d < updated.size(); ++d) {
      updated[d] = a.sum[d] / static_cast<double>(a.count);
    }
    next.shift += std::sqrt(SquaredDistance(updated, st.means[i]));
    next.means[i] = updated;
  }
  return next;
}

bool ShouldContinue(const LoopState& st, const KMeansParams& params) {
  return st.iteration < params.max_iterations && st.shift > params.epsilon;
}

KMeansModel ModelFromState(const LoopState& st) {
  KMeansModel m;
  m.means = StateMeans(st);
  m.inertia = st.inertia;
  m.iterations = st.iteration;
  return m;
}

/// Relative UDF weight of one distance-to-k-centroids computation.
double AssignWeight(const KMeansParams& params) {
  return static_cast<double>(params.k);
}

/// One lifted K-means iteration body, shared by the grouped mode (assigned
/// via MapWithClosure over the per-run point InnerBag) and the
/// hyperparameter mode (assigned via HalfLiftedMapWithClosure over the
/// shared point bag). `assign` produces the InnerBag of (centroid, agg)
/// pairs for the current state.
template <typename AssignFn>
std::pair<core::InnerScalar<LoopState>, core::InnerScalar<bool>>
LiftedIteration(const core::LiftingContext& ctx,
                const core::InnerScalar<LoopState>& state,
                const KMeansParams& params, AssignFn assign) {
  auto assigned = assign(state);
  // Per (run, centroid) aggregation, then gather the k aggregates of each
  // run into one PartialAggs per tag.
  // Keys are the k centroid slots per run — a fixed key space, so the
  // combined aggregate is tag-sized (scale = tag scale), not data-sized.
  auto per_centroid = core::LiftedReduceByKey(
      assigned,
      [](CentroidAgg a, const CentroidAgg& b) {
        a.Add(b);
        return a;
      },
      /*weight=*/1.0, /*result_scale=*/ctx.tags().scale());
  auto partials = core::LiftedFold(
      per_centroid, PartialAggs{},
      [](const std::pair<int64_t, CentroidAgg>& p) {
        PartialAggs pa;
        pa.aggs[static_cast<std::size_t>(p.first)] = p.second;
        return pa;
      },
      [](PartialAggs a, const PartialAggs& b) {
        for (std::size_t i = 0; i < a.aggs.size(); ++i) {
          a.aggs[i].Add(b.aggs[i]);
        }
        return a;
      });
  auto next = core::BinaryScalarOp(
      state, partials,
      [](const LoopState& st, const PartialAggs& pa) {
        return AdvanceState(st, pa);
      });
  auto cond = core::UnaryScalarOp(next, [params](const LoopState& st) {
    return ShouldContinue(st, params);
  });
  return {next, cond};
}

}  // namespace

KMeansModel SequentialKMeans(const std::vector<Point>& points, Means init,
                             int64_t max_iterations, double epsilon) {
  LoopState st = MakeInitialState(init);
  while (true) {
    PartialAggs partial;
    for (const Point& p : points) {
      auto [idx, agg] = AssignPointKeyed(p, st);
      partial.aggs[static_cast<std::size_t>(idx)].Add(agg);
    }
    st = AdvanceState(st, partial);
    if (!ShouldContinue(st, KMeansParams{.k = st.k,
                                         .max_iterations = max_iterations,
                                         .epsilon = epsilon})) {
      break;
    }
  }
  return ModelFromState(st);
}

KMeansResult KMeansMatryoshka(Cluster* cluster,
                              const Bag<std::pair<int64_t, Point>>& points,
                              const KMeansParams& params,
                              core::OptimizerOptions options) {
  auto nested = core::GroupByKeyIntoNestedBag(points, options);
  // The per-run point set is tag-joined with the loop state every iteration:
  // when there are enough runs to fill the cluster, partition it by tag once
  // so those joins never re-shuffle it (with few runs the joins broadcast
  // the state instead and no pre-partitioning is needed).
  auto group_points = core::MaybePartitionByTag(nested.values());
  const uint64_t seed = params.init_seed;
  const int64_t k = params.k;
  auto init = core::UnaryScalarOp(nested.keys(), [seed, k](int64_t run) {
    return MakeInitialState(
        datagen::GenerateInitialMeans(k, seed + static_cast<uint64_t>(run)));
  });

  const double w = AssignWeight(params);
  auto final_state = core::LiftedWhileScalar(
      init,
      [&](const core::LiftingContext& ctx,
          const core::InnerScalar<LoopState>& state, int64_t) {
        return LiftedIteration(
            ctx, state, params, [&](const core::InnerScalar<LoopState>& st) {
              // Sec. 5.1 closure: every point of the run meets the run's
              // current means.
              return core::MapWithClosure(group_points, st,
                                          &AssignPointKeyed, w);
            });
      },
      params.max_iterations + 1, "kmeans");

  auto models =
      core::UnaryScalarOp(final_state, [](const LoopState& st) {
        return ModelFromState(st);
      });
  auto collected = engine::Collect(core::ZipWithKeys(nested.keys(), models));
  return FinishRun<int64_t, KMeansModel>(cluster, std::move(collected));
}

KMeansResult KMeansOuterParallel(Cluster* cluster,
                                 const Bag<std::pair<int64_t, Point>>& points,
                                 const KMeansParams& params) {
  // Streaming implementation: repartition by run id (one partition per
  // run), then run the sequential K-means over each partition as one task
  // (Spark's mapPartitions). Unlike the groupBy-based workaround of Bounce
  // Rate / PageRank, this never materializes an Array per group — points
  // are fixed-width records that can be re-streamed every iteration, and
  // the task's live memory is just the k centroids. What remains of the
  // workaround's cost is its defining one: parallelism is capped at the
  // number of runs.
  const int64_t num_runs = engine::Count(engine::Distinct(
      engine::Keys(points)));
  auto parted = engine::PartitionByKey(points, std::max<int64_t>(1, num_runs));
  if (!cluster->ok()) {
    return FinishRun<int64_t, KMeansModel>(cluster, {});
  }

  // One sequential K-means per run, one task per partition; charge the
  // exact iteration count each run needed (iterations x points x k).
  std::vector<double> task_costs(parted.partitions().size(), 0.0);
  typename Bag<std::pair<int64_t, KMeansModel>>::Partitions out(
      parted.partitions().size());
  for (std::size_t i = 0; i < parted.partitions().size(); ++i) {
    std::unordered_map<int64_t, std::vector<Point>> groups;
    for (const auto& [run, p] : parted.partitions()[i]) {
      groups[run].push_back(p);
    }
    for (const auto& [run, pts] : groups) {
      KMeansModel model = SequentialKMeans(
          pts,
          datagen::GenerateInitialMeans(
              params.k, params.init_seed + static_cast<uint64_t>(run)),
          params.max_iterations, params.epsilon);
      task_costs[i] += cluster->ComputeCost(
          static_cast<double>(pts.size()) *
              static_cast<double>(model.iterations) * parted.scale(),
          AssignWeight(params));
      out[i].emplace_back(run, std::move(model));
    }
  }
  cluster->AccrueStage(task_costs, /*lineage_depth=*/1,
                       engine::StageContext{"kmeans[sequential-per-run]"});
  Bag<std::pair<int64_t, KMeansModel>> models(cluster, std::move(out));
  auto collected = engine::Collect(models);
  return FinishRun<int64_t, KMeansModel>(cluster, std::move(collected));
}

KMeansResult KMeansInnerParallel(Cluster* cluster,
                                 const Bag<std::pair<int64_t, Point>>& points,
                                 const KMeansParams& params) {
  std::vector<std::pair<int64_t, KMeansModel>> results;
  const double w = AssignWeight(params);
  baselines::ForEachGroupInnerParallel(
      points, [&](const int64_t& run, const Bag<Point>& group) {
        LoopState st = MakeInitialState(datagen::GenerateInitialMeans(
            params.k, params.init_seed + static_cast<uint64_t>(run)));
        while (cluster->ok()) {
          // One dataflow job per iteration: assignment + aggregation, with
          // the k partial aggregates collected to the driver.
          auto assigned = engine::Map(
              group,
              [st](const Point& p) { return AssignPointKeyed(p, st); }, w);
          auto reduced = engine::ReduceByKey(
              assigned,
              [](CentroidAgg a, const CentroidAgg& b) {
                a.Add(b);
                return a;
              },
              /*num_partitions=*/static_cast<int64_t>(params.k),
              /*weight=*/1.0, /*result_scale=*/1.0);
          auto parts = engine::Collect(reduced);
          PartialAggs partial;
          for (auto& [idx, agg] : parts) {
            partial.aggs[static_cast<std::size_t>(idx)].Add(agg);
          }
          st = AdvanceState(st, partial);
          if (!ShouldContinue(st, params)) break;
        }
        results.emplace_back(run, ModelFromState(st));
      });
  if (!cluster->ok()) results.clear();
  return FinishRun<int64_t, KMeansModel>(cluster, std::move(results));
}

KMeansResult RunKMeans(Cluster* cluster,
                       const Bag<std::pair<int64_t, Point>>& points,
                       const KMeansParams& params, Variant variant,
                       core::OptimizerOptions options) {
  switch (variant) {
    case Variant::kMatryoshka:
      return KMeansMatryoshka(cluster, points, params, options);
    case Variant::kOuterParallel:
      return KMeansOuterParallel(cluster, points, params);
    case Variant::kInnerParallel:
      return KMeansInnerParallel(cluster, points, params);
    case Variant::kDiqlLike:
      break;  // DIQL does not support control flow at inner levels (Sec. 9.1)
  }
  KMeansResult r;
  r.status = Status::Unsupported(
      "DIQL-like baseline cannot run iterative tasks (no control flow at "
      "inner nesting levels)");
  return r;
}

std::vector<std::pair<int64_t, KMeansModel>> KMeansReference(
    const std::vector<std::pair<int64_t, Point>>& points,
    const KMeansParams& params) {
  std::map<int64_t, std::vector<Point>> by_run;
  for (const auto& [run, p] : points) by_run[run].push_back(p);
  std::vector<std::pair<int64_t, KMeansModel>> out;
  out.reserve(by_run.size());
  for (const auto& [run, pts] : by_run) {
    out.emplace_back(
        run, SequentialKMeans(
                 pts,
                 datagen::GenerateInitialMeans(
                     params.k, params.init_seed + static_cast<uint64_t>(run)),
                 params.max_iterations, params.epsilon));
  }
  return out;
}

KMeansResult KMeansHyperparameterMatryoshka(Cluster* cluster,
                                            const Bag<Point>& points,
                                            int64_t num_runs,
                                            const KMeansParams& params,
                                            core::OptimizerOptions options) {
  // A bag of initial configurations, mapped with a lifted UDF (Sec. 2.3).
  std::vector<std::pair<int64_t, Means>> inits;
  inits.reserve(static_cast<std::size_t>(num_runs));
  for (int64_t r = 0; r < num_runs; ++r) {
    inits.emplace_back(r, datagen::GenerateInitialMeans(
                              params.k,
                              params.init_seed + static_cast<uint64_t>(r)));
  }
  // The configurations bag is real-sized: scale 1.
  auto init_bag = engine::Parallelize(
      cluster, inits, std::min<int64_t>(num_runs, 64), /*scale=*/1.0);

  auto result = core::MapWithLiftedUdf(
      init_bag,
      [&](const core::LiftingContext& ctx,
          const core::InnerScalar<std::pair<int64_t, Means>>& lifted_inits) {
        auto run_ids = core::UnaryScalarOp(
            lifted_inits,
            [](const std::pair<int64_t, Means>& p) { return p.first; });
        auto init_state = core::UnaryScalarOp(
            lifted_inits, [](const std::pair<int64_t, Means>& p) {
              return MakeInitialState(p.second);
            });
        const double w = AssignWeight(params);
        auto final_state = core::LiftedWhileScalar(
            init_state,
            [&](const core::LiftingContext& loop_ctx,
                const core::InnerScalar<LoopState>& state, int64_t) {
              return LiftedIteration(
                  loop_ctx, state, params,
                  [&](const core::InnerScalar<LoopState>& st) {
                    // The shared point bag lives OUTSIDE the lifted UDF; the
                    // per-run state INSIDE it: a half-lifted MapWithClosure
                    // (Sec. 8.3), i.e. a cross product with an
                    // optimizer-chosen broadcast side.
                    return core::HalfLiftedMapWithClosure(
                        points, st, &AssignPointKeyed, w);
                  });
            },
            params.max_iterations + 1, "kmeans-hyperparameter");
        auto models = core::UnaryScalarOp(
            final_state, [](const LoopState& st) {
              return ModelFromState(st);
            });
        (void)ctx;
        return core::BinaryScalarOp(
            run_ids, models, [](int64_t run, const KMeansModel& m) {
              return std::pair<int64_t, KMeansModel>(run, m);
            });
      },
      options);

  auto collected = engine::Collect(result.Flatten());
  return FinishRun<int64_t, KMeansModel>(cluster, std::move(collected));
}

KMeansResult KMeansHyperparameterInnerParallel(Cluster* cluster,
                                               const Bag<Point>& points,
                                               int64_t num_runs,
                                               const KMeansParams& params) {
  std::vector<std::pair<int64_t, KMeansModel>> results;
  const double w = AssignWeight(params);
  for (int64_t run = 0; run < num_runs && cluster->ok(); ++run) {
    LoopState st = MakeInitialState(datagen::GenerateInitialMeans(
        params.k, params.init_seed + static_cast<uint64_t>(run)));
    while (cluster->ok()) {
      auto assigned = engine::Map(
          points, [st](const Point& p) { return AssignPointKeyed(p, st); },
          w);
      auto reduced = engine::ReduceByKey(
          assigned,
          [](CentroidAgg a, const CentroidAgg& b) {
            a.Add(b);
            return a;
          },
          /*num_partitions=*/static_cast<int64_t>(params.k),
          /*weight=*/1.0, /*result_scale=*/1.0);
      auto parts = engine::Collect(reduced);
      PartialAggs partial;
      for (auto& [idx, agg] : parts) {
        partial.aggs[static_cast<std::size_t>(idx)].Add(agg);
      }
      st = AdvanceState(st, partial);
      if (!ShouldContinue(st, params)) break;
    }
    results.emplace_back(run, ModelFromState(st));
  }
  if (!cluster->ok()) results.clear();
  return FinishRun<int64_t, KMeansModel>(cluster, std::move(results));
}

}  // namespace matryoshka::workloads
