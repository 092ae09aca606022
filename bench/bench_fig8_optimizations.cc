// Figure 8 (Sec. 9.6): the lowering-phase optimizer's physical choices.
//  (left)  InnerBag x InnerScalar joins in PageRank: forced broadcast vs.
//          forced repartition vs. the optimizer, sweeping the number of
//          inner computations. The repartition join is much slower when
//          there are few inner computations (it shuffles the data-sized
//          side into a handful of partitions, starving the cluster), the
//          two converge at many inner computations, and the optimizer
//          tracks the better choice.
//  (right) half-lifted MapWithClosure in hyperparameter K-means: broadcast
//          the per-run means (the InnerScalar) vs. broadcast the shared
//          point set (the primary input) vs. the optimizer. Broadcasting
//          the primary input crashes with out-of-memory once the point set
//          outgrows a machine; the optimizer never does.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/optimizer.h"
#include "datagen/datagen.h"
#include "engine/bag.h"
#include "workloads/kmeans.h"
#include "workloads/pagerank.h"

namespace matryoshka::bench {
namespace {

constexpr uint64_t kSeed = 83;

const char* JoinName(core::JoinStrategy s) {
  switch (s) {
    case core::JoinStrategy::kAuto:
      return "optimizer";
    case core::JoinStrategy::kBroadcast:
      return "broadcast";
    case core::JoinStrategy::kRepartition:
      return "repartition";
  }
  return "?";
}

const char* CrossName(core::CrossStrategy s) {
  switch (s) {
    case core::CrossStrategy::kAuto:
      return "optimizer";
    case core::CrossStrategy::kBroadcastScalar:
      return "broadcast-means";
    case core::CrossStrategy::kBroadcastPrimary:
      return "broadcast-points";
  }
  return "?";
}

void BM_Fig8a_JoinStrategies(benchmark::State& state) {
  const int64_t groups = state.range(0);
  const auto strategy = static_cast<core::JoinStrategy>(state.range(1));
  constexpr int64_t kTotalEdges = 1 << 18;
  workloads::PageRankParams params;
  params.iterations = 10;
  core::OptimizerOptions opts;
  opts.join_strategy = strategy;

  engine::ClusterConfig cfg = PaperCluster();
  // The paper runs this at a 160 GB-class input (Fig. 8a caption).
  ScaleToTarget(&cfg, 160.0, kTotalEdges,
                sizeof(std::pair<int64_t, datagen::Edge>));
  auto data = datagen::GenerateGroupedEdges(
      kTotalEdges, groups, std::max<int64_t>(16, (1 << 16) / groups), 0.0,
      kSeed);
  engine::Cluster cluster(cfg);
  ObsAttach(&cluster, std::string("fig8a/join/") + JoinName(strategy),
            {groups});
  for (auto _ : state) {
    cluster.Reset();
    auto bag = engine::Parallelize(&cluster, data);
    Report(state,
           workloads::PageRankMatryoshka(&cluster, bag, params, opts));
  }
  state.SetLabel(JoinName(strategy));
}

void BM_Fig8b_HalfLiftedStrategies(benchmark::State& state) {
  const int64_t runs = state.range(0);
  const auto strategy = static_cast<core::CrossStrategy>(state.range(1));
  // The half-lifted cross product materializes |points| x |runs| synthetic
  // elements per iteration; keep the synthetic set small (the data_scale
  // still models a 40 GB-class input).
  constexpr int64_t kTotalPoints = 1 << 15;
  workloads::KMeansParams params;
  params.k = 4;
  params.max_iterations = 5;
  params.epsilon = -1.0;
  core::OptimizerOptions opts;
  opts.cross_strategy = strategy;

  engine::ClusterConfig cfg = PaperCluster();
  // A 40 GB-class shared point set: broadcasting it (2x for the
  // deserialized build) cannot fit into one 22 GB machine.
  ScaleToTarget(&cfg, 40.0, kTotalPoints, sizeof(datagen::Point));
  auto data = datagen::GeneratePoints(kTotalPoints, 4, kSeed);
  engine::Cluster cluster(cfg);
  ObsAttach(&cluster, std::string("fig8b/cross/") + CrossName(strategy),
            {runs});
  for (auto _ : state) {
    cluster.Reset();
    auto bag = engine::Parallelize(&cluster, data);
    Report(state, workloads::KMeansHyperparameterMatryoshka(
                      &cluster, bag, runs, params, opts));
  }
  state.SetLabel(CrossName(strategy));
}

void JoinArgs(benchmark::internal::Benchmark* b) {
  for (int64_t groups : {4, 16, 64, 256, 1024, 4096}) {
    for (int64_t s :
         {static_cast<int64_t>(core::JoinStrategy::kAuto),
          static_cast<int64_t>(core::JoinStrategy::kBroadcast),
          static_cast<int64_t>(core::JoinStrategy::kRepartition)}) {
      b->Args({groups, s});
    }
  }
  b->UseManualTime()->Unit(benchmark::kSecond)->Iterations(1);
}

void CrossArgs(benchmark::internal::Benchmark* b) {
  for (int64_t runs : {4, 16, 64}) {
    for (int64_t s :
         {static_cast<int64_t>(core::CrossStrategy::kAuto),
          static_cast<int64_t>(core::CrossStrategy::kBroadcastScalar),
          static_cast<int64_t>(core::CrossStrategy::kBroadcastPrimary)}) {
      b->Args({runs, s});
    }
  }
  b->UseManualTime()->Unit(benchmark::kSecond)->Iterations(1);
}

BENCHMARK(BM_Fig8a_JoinStrategies)->Apply(JoinArgs);
BENCHMARK(BM_Fig8b_HalfLiftedStrategies)->Apply(CrossArgs);

}  // namespace
}  // namespace matryoshka::bench

MATRYOSHKA_BENCH_MAIN();
