// Figure 1 (Sec. 1): K-means runtimes with a varying number of initial
// configurations, total computation size held constant (#configurations x
// points-per-configuration = const). Reproduces the motivation plot:
//  - inner-parallel is near-ideal at few configurations but degrades as the
//    per-configuration job-launch overhead accumulates,
//  - outer-parallel is up to two orders of magnitude slower at few
//    configurations (parallelism capped at #configurations) and approaches
//    ideal only with many of them,
//  - the crossover sits around 64 configurations, and even at the sweet
//    spot both workarounds stay well above ideal (the gray gap),
//  - Matryoshka (added for reference) tracks the ideal line.
// The "ideal" series is the time of a single configuration over the full
// input, fully parallelized.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "datagen/datagen.h"
#include "engine/bag.h"
#include "workloads/kmeans.h"

namespace matryoshka::bench {
namespace {

using workloads::KMeansParams;
using workloads::Variant;

constexpr int64_t kTotalPoints = 1 << 18;
constexpr double kTargetGb = 8.0;
constexpr uint64_t kSeed = 2021;

KMeansParams Params() {
  KMeansParams p;
  p.k = 4;
  p.max_iterations = 10;
  p.epsilon = 0.0;  // fixed work per run: #configs x size is exactly const
  return p;
}

engine::ClusterConfig Config() {
  engine::ClusterConfig cfg = PaperCluster();
  ScaleToTarget(&cfg, kTargetGb, kTotalPoints,
                sizeof(std::pair<int64_t, datagen::Point>));
  return cfg;
}

const char* VariantLabel(Variant variant) {
  switch (variant) {
    case Variant::kInnerParallel:
      return "fig1/inner-parallel";
    case Variant::kOuterParallel:
      return "fig1/outer-parallel";
    default:
      return "fig1/matryoshka";
  }
}

void RunVariant(benchmark::State& state, Variant variant) {
  const int64_t configs = state.range(0);
  auto data =
      datagen::GenerateGroupedPoints(kTotalPoints, configs, 3, kSeed);
  engine::Cluster cluster(Config());
  ObsAttach(&cluster, VariantLabel(variant), {configs});
  for (auto _ : state) {
    cluster.Reset();
    auto bag = engine::Parallelize(&cluster, data);
    auto result = workloads::RunKMeans(&cluster, bag, Params(), variant);
    Report(state, result);
  }
}

void BM_Fig1_InnerParallel(benchmark::State& state) {
  RunVariant(state, Variant::kInnerParallel);
}
void BM_Fig1_OuterParallel(benchmark::State& state) {
  RunVariant(state, Variant::kOuterParallel);
}
void BM_Fig1_Matryoshka(benchmark::State& state) {
  RunVariant(state, Variant::kMatryoshka);
}

/// The ideal line: one configuration over the full input, fully parallel.
/// Constant by construction; reported once per x to ease plotting.
void BM_Fig1_Ideal(benchmark::State& state) {
  auto data = datagen::GenerateGroupedPoints(kTotalPoints, 1, 3, kSeed);
  engine::Cluster cluster(Config());
  ObsAttach(&cluster, "fig1/ideal", {state.range(0)});
  for (auto _ : state) {
    cluster.Reset();
    auto bag = engine::Parallelize(&cluster, data);
    auto result = workloads::KMeansInnerParallel(&cluster, bag, Params());
    Report(state, result);
  }
}

#define FIG1_ARGS                                            \
  RangeMultiplier(4)->Range(1, 1024)->UseManualTime()        \
      ->Unit(benchmark::kSecond)->Iterations(1)

BENCHMARK(BM_Fig1_Ideal)->FIG1_ARGS;
BENCHMARK(BM_Fig1_InnerParallel)->FIG1_ARGS;
BENCHMARK(BM_Fig1_OuterParallel)->FIG1_ARGS;
BENCHMARK(BM_Fig1_Matryoshka)->FIG1_ARGS;

}  // namespace
}  // namespace matryoshka::bench

MATRYOSHKA_BENCH_MAIN();
