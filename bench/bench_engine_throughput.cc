// Real wall-clock throughput of the engine's operators (elements/second on
// the hardware clock — NOT the simulated cluster time every other bench
// reports). The engine really executes every operator in-process, so this is
// the number that gates test runs, bench sweeps, and any scale-up of the
// reproduction; BENCH_throughput.json is the repo's wall-clock perf
// trajectory.
//
// Axes per operator:
//   arg0: execute_parallel (0 = single-threaded, 1 = thread pool). Results
//         are bit-identical either way (engine_parallel_determinism_test);
//         only wall-clock changes.
//   variant suffix: small (16-byte pair<int64,int64>) vs large
//         (pair<int64,string> with a 48-char heap payload).
//
// The chain/ families time the fused narrow-op pipeline on a map -> filter
// -> map -> mapValues chain and a 10-op deep chain.
//
// Reported time is manual wall time of the operator alone (datagen and
// Cluster::Reset excluded); items/s counts synthetic input elements. With
// --metrics-json=FILE each run additionally records a "wall" object
// (real_s, elements, elements_per_s) next to the simulated metrics. The
// measured region keeps a null trace sink, so observability never perturbs
// the wall numbers.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "engine/bag.h"
#include "engine/iterate.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

namespace matryoshka::bench {
namespace {

using engine::Bag;
using engine::Cluster;

// Enough elements that one operator run takes O(100 ms) single-threaded;
// partition count gives every pool worker several partitions to chew on.
constexpr int64_t kSmallN = 1 << 21;  // 2M pair<int64,int64>
constexpr int64_t kLargeN = 1 << 18;  // 256k pair<int64,string>
constexpr int64_t kParts = 64;
constexpr int64_t kKeys = 1 << 15;

engine::ClusterConfig Config(bool parallel) {
  engine::ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 4;
  cfg.default_parallelism = kParts;
  cfg.execute_parallel = parallel;
  return cfg;
}

std::vector<std::pair<int64_t, int64_t>> SmallData(int64_t n) {
  std::vector<std::pair<int64_t, int64_t>> data;
  data.reserve(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) data.emplace_back(i % kKeys, i);
  return data;
}

std::vector<std::pair<int64_t, std::string>> LargeData(int64_t n) {
  std::vector<std::pair<int64_t, std::string>> data;
  data.reserve(static_cast<std::size_t>(n));
  std::string payload(48, 'x');
  for (int64_t i = 0; i < n; ++i) {
    payload[0] = static_cast<char>('a' + i % 26);
    data.emplace_back(i % kKeys, payload);
  }
  return data;
}

/// Runs `op(bag)` per iteration under a manual wall-clock stopwatch, then
/// reports items/s to google-benchmark and the wall record to the metrics
/// JSON. `op` must consume the bag and return something rooted in the
/// result so the work cannot be optimized away.
template <typename T, typename Op>
void MeasureOp(benchmark::State& state, const char* name, Cluster* cluster,
               const Bag<T>& bag, Op op) {
  const bool parallel = state.range(0) != 0;
  double wall_s = 0.0;
  int64_t elements = 0;
  for (auto _ : state) {
    cluster->Reset();
    Stopwatch sw;
    auto out = op(bag);
    const double elapsed = sw.ElapsedSeconds();
    benchmark::DoNotOptimize(out);
    state.SetIterationTime(elapsed);
    wall_s += elapsed;
    elements += bag.Size();
  }
  state.SetItemsProcessed(elements);
  state.counters["pool"] = parallel ? 1 : 0;

  ObsSession::WallStats wall;
  wall.real_s = wall_s;
  wall.elements = elements;
  wall.elements_per_s = wall_s > 0 ? static_cast<double>(elements) / wall_s : 0;
  std::string run_name = std::string("throughput/") + name + "/pool" +
                         (parallel ? "1" : "0");
  ObsSession::Get().ReportNamedRun(std::move(run_name), cluster->metrics(),
                                   cluster->ok(),
                                   cluster->status().ToString(), wall);
}

// --- Small elements: pair<int64, int64> ---

void BM_Map_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "map/small", &cluster, bag, [](const auto& b) {
    auto out = engine::Map(b, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first, p.second + 1);
    });
    // Map composes instantly; force so the measured region covers the
    // materialization.
    out.Force();
    return out;
  });
}

void BM_Repartition_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "repartition/small", &cluster, bag, [](const auto& b) {
    return engine::Repartition(b, kParts);
  });
}

void BM_PartitionByKey_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "partitionByKey/small", &cluster, bag, [](const auto& b) {
    return engine::PartitionByKey(b, kParts);
  });
}

void BM_ReduceByKey_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "reduceByKey/small", &cluster, bag, [](const auto& b) {
    return engine::ReduceByKey(
        b, [](int64_t a, int64_t v) { return a + v; }, kParts);
  });
}

void BM_GroupByKey_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "groupByKey/small", &cluster, bag, [](const auto& b) {
    return engine::GroupByKey(b, kParts);
  });
}

void BM_Distinct_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "distinct/small", &cluster, bag, [](const auto& b) {
    return engine::Distinct(engine::Keys(b), kParts);
  });
}

void BM_RepartitionJoin_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  std::vector<std::pair<int64_t, int64_t>> rhs;
  rhs.reserve(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) rhs.emplace_back(i, i * 10);
  auto right = engine::Parallelize(&cluster, std::move(rhs), kParts);
  MeasureOp(state, "repartitionJoin/small", &cluster, bag,
            [&right](const auto& b) {
              return engine::RepartitionJoin(b, right, kParts);
            });
}

void BM_BroadcastJoin_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  std::vector<std::pair<int64_t, int64_t>> rhs;
  rhs.reserve(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) rhs.emplace_back(i, i * 10);
  auto right = engine::Parallelize(&cluster, std::move(rhs), 4);
  MeasureOp(state, "broadcastJoin/small", &cluster, bag,
            [&right](const auto& b) {
              return engine::BroadcastJoin(b, right);
            });
}

// --- Large elements: pair<int64, std::string> (heap payloads) ---

void BM_Repartition_Large(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  MeasureOp(state, "repartition/large", &cluster, bag, [](const auto& b) {
    return engine::Repartition(b, kParts);
  });
}

void BM_ReduceByKey_Large(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  MeasureOp(state, "reduceByKey/large", &cluster, bag, [](const auto& b) {
    return engine::ReduceByKey(
        b,
        [](const std::string& a, const std::string& v) {
          return a.size() >= v.size() ? a : v;
        },
        kParts);
  });
}

void BM_GroupByKey_Large(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  MeasureOp(state, "groupByKey/large", &cluster, bag, [](const auto& b) {
    return engine::GroupByKey(b, kParts);
  });
}

void BM_Distinct_Large(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  MeasureOp(state, "distinct/large", &cluster, bag, [](const auto& b) {
    return engine::Distinct(engine::Values(b), kParts);
  });
}

// --- Out-of-core: shuffle + group-by under a real memory budget ---
//
// The heap-payload working set (~20 MB of real element data, modeling ~8 GB
// at data_scale) exceeds the 4 MB real scratch budget several times over, so
// every scatter and group build of the bounded arm runs through the external
// spilling paths (temp-file runs, deterministic merge-on-read). Results are
// bit-identical to the unbounded arm — the external determinism contract,
// locked by engine_external_test — and the metrics JSON rows carry the real
// spilled bytes (real_spilled_bytes > 0 on the bounded arm only).

constexpr std::size_t kRealBudgetBytes = std::size_t{4} << 20;  // 4 MB

void BM_ShuffleGroup_Budget(benchmark::State& state) {
  engine::ClusterConfig cfg = Config(state.range(0) != 0);
  const bool bounded = state.range(1) != 0;
  cfg.real_memory_budget_bytes = bounded ? kRealBudgetBytes : 0;
  // The synthetic dataset stands for ~8 GB of real data on the simulated
  // cluster; the REAL budget below bounds actual process scratch.
  ScaleToTarget(&cfg, 8.0, kLargeN, 80.0);
  Cluster cluster(cfg);
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  const char* name = bounded ? "budget/shuffleGroup/bounded4mb"
                             : "budget/shuffleGroup/unbounded";
  MeasureOp(state, name, &cluster, bag, [](const auto& b) {
    auto grouped =
        engine::GroupByKey(engine::Repartition(b, kParts), kParts);
    return engine::MapValues(grouped, [](const std::vector<std::string>& g) {
      return static_cast<int64_t>(g.size());
    });
  });
  state.counters["budget_mb"] =
      bounded ? static_cast<double>(kRealBudgetBytes) / (1 << 20) : 0;
  state.counters["real_spill_mb"] =
      cluster.metrics().real_spilled_bytes / (1 << 20);
}

// --- Chaos: the out-of-core pipeline under an injected real-fault storm ---
//
// A/B of the same bounded shuffle+group as BM_ShuffleGroup_Budget, calm
// (failpoints disarmed) vs storm (deterministic seeded transient EIO, short
// transfers, a sprinkle of ENOSPC and bit-rot, fallback-in-memory on). The
// storm arm measures the wall-clock cost of the hardened IO layer actually
// absorbing faults; its outputs are still bit-identical to the calm arm
// (ChaosEngineTest locks that), and its metrics row carries nonzero
// real_io_faults_injected / real_io_retries / checksum_failures /
// inmemory_fallbacks while the calm arm keeps all four at exactly zero.

void BM_ShuffleGroup_Chaos(benchmark::State& state) {
  engine::ClusterConfig cfg = Config(state.range(0) != 0);
  const bool storm = state.range(1) != 0;
  cfg.real_memory_budget_bytes = kRealBudgetBytes;
  if (storm) {
    cfg.real_faults.seed = 2021;
    cfg.real_faults.write_eio_prob = 0.1;
    cfg.real_faults.read_eio_prob = 0.1;
    cfg.real_faults.short_write_prob = 0.2;
    cfg.real_faults.short_read_prob = 0.2;
    cfg.real_faults.write_enospc_prob = 0.002;
    cfg.real_faults.corrupt_prob = 0.002;
  }
  ScaleToTarget(&cfg, 8.0, kLargeN, 80.0);
  Cluster cluster(cfg);
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  const char* name =
      storm ? "chaos/shuffleGroup/storm" : "chaos/shuffleGroup/calm";
  MeasureOp(state, name, &cluster, bag, [](const auto& b) {
    auto grouped =
        engine::GroupByKey(engine::Repartition(b, kParts), kParts);
    return engine::MapValues(grouped, [](const std::vector<std::string>& g) {
      return static_cast<int64_t>(g.size());
    });
  });
  state.counters["storm"] = storm ? 1 : 0;
  state.counters["io_faults"] =
      static_cast<double>(cluster.metrics().real_io_faults_injected);
  state.counters["io_retries"] =
      static_cast<double>(cluster.metrics().real_io_retries);
  state.counters["fallbacks"] =
      static_cast<double>(cluster.metrics().inmemory_fallbacks);
}

// --- Narrow chains: map -> filter -> map -> mapValues ---
//
// The chain benches force the result inside the measured region (chains are
// pending until forced), so each row covers the whole fused pass.

void BM_Chain_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "chain/small", &cluster, bag, [](const auto& b) {
    auto m1 = engine::Map(b, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first, p.second + 1);
    });
    auto f1 = engine::Filter(m1, [](const std::pair<int64_t, int64_t>& p) {
      return (p.second & 7) != 0;
    });
    auto m2 = engine::Map(f1, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first, p.second * 3);
    });
    auto mv = engine::MapValues(m2, [](int64_t v) { return v - 1; });
    mv.Force();  // the action boundary: materialize inside the timed region
    return mv;
  });
}

void BM_Chain_Large(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  MeasureOp(state, "chain/large", &cluster, bag, [](const auto& b) {
    auto m1 = engine::Map(b, [](const std::pair<int64_t, std::string>& p) {
      return std::pair<int64_t, std::string>(p.first, p.second + "y");
    });
    auto f1 =
        engine::Filter(m1, [](const std::pair<int64_t, std::string>& p) {
          return (p.first & 7) != 0;
        });
    auto m2 = engine::Map(f1, [](const std::pair<int64_t, std::string>& p) {
      return std::pair<int64_t, std::string>(p.first + 1, p.second);
    });
    auto mv = engine::MapValues(m2, [](std::string v) {
      v[0] = 'z';
      return v;
    });
    mv.Force();
    return mv;
  });
}

// --- Deep narrow chains: 10 composed size-preserving ops ---
//
// The deep family is where per-element dispatch cost would compound: every
// element crosses 10 op boundaries, which the static chain folds into one
// monomorphic loop body. All ops are size-preserving (map / mapValues), so
// the whole chain fuses into a single pass with no forced boundary.

void BM_ChainDeep_Small(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, SmallData(kSmallN), kParts);
  MeasureOp(state, "chain/deep/small", &cluster, bag, [](const auto& b) {
    using P = std::pair<int64_t, int64_t>;
    auto s1 = engine::Map(b, [](const P& p) { return P(p.first, p.second + 1); });
    auto s2 = engine::MapValues(s1, [](int64_t v) { return v * 3; });
    auto s3 = engine::Map(s2, [](const P& p) { return P(p.first ^ 1, p.second); });
    auto s4 = engine::MapValues(s3, [](int64_t v) { return v - 7; });
    auto s5 = engine::Map(s4, [](const P& p) { return P(p.first, p.second ^ p.first); });
    auto s6 = engine::MapValues(s5, [](int64_t v) { return v + 11; });
    auto s7 = engine::Map(s6, [](const P& p) { return P(p.first + 2, p.second); });
    auto s8 = engine::MapValues(s7, [](int64_t v) { return v * 5; });
    auto s9 = engine::Map(s8, [](const P& p) { return P(p.first, p.second - 13); });
    auto s10 = engine::MapValues(s9, [](int64_t v) { return v ^ 255; });
    s10.Force();
    return s10;
  });
}

void BM_ChainDeep_Large(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  auto bag = engine::Parallelize(&cluster, LargeData(kLargeN), kParts);
  MeasureOp(state, "chain/deep/large", &cluster, bag, [](const auto& b) {
    using P = std::pair<int64_t, std::string>;
    auto s1 = engine::Map(b, [](const P& p) { return P(p.first + 1, p.second); });
    auto s2 = engine::MapValues(s1, [](std::string v) {
      v[0] = 'a';
      return v;
    });
    auto s3 = engine::Map(s2, [](const P& p) { return P(p.first ^ 3, p.second); });
    auto s4 = engine::MapValues(s3, [](std::string v) {
      v.back() = 'q';
      return v;
    });
    auto s5 = engine::Map(s4, [](const P& p) { return P(p.first * 2, p.second); });
    auto s6 = engine::MapValues(s5, [](std::string v) {
      v[1] = 'b';
      return v;
    });
    auto s7 = engine::Map(s6, [](const P& p) { return P(p.first - 5, p.second); });
    auto s8 = engine::MapValues(s7, [](std::string v) {
      v[2] = 'c';
      return v;
    });
    auto s9 = engine::Map(s8, [](const P& p) { return P(p.first ^ 9, p.second); });
    auto s10 = engine::MapValues(s9, [](std::string v) {
      v[3] = 'd';
      return v;
    });
    s10.Force();
    return s10;
  });
}

// --- Native iteration: an in-engine loop ---
//
// An 8-round countdown loop over 512k elements: each round broadcast-joins
// the state against a loop-invariant stepping table, decrements, and asks
// "any element still positive?" through the fused AnyMatch — one counting
// pass with no materialized intermediate. The loop-invariant broadcast is
// resident after round 1; the metrics row carries the three iteration
// counters.

constexpr int64_t kIterN = kSmallN / 4;  // 512k live elements per round
constexpr int64_t kIterRounds = 8;

void BM_Iterate_Countdown(benchmark::State& state) {
  Cluster cluster(Config(state.range(0) != 0));
  using P = std::pair<int64_t, int64_t>;
  std::vector<P> data;
  data.reserve(kIterN);
  for (int64_t i = 0; i < kIterN; ++i) {
    data.emplace_back(i % kKeys, kIterRounds);
  }
  auto bag = engine::Parallelize(&cluster, std::move(data), kParts);
  std::vector<P> steps;
  steps.reserve(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) steps.emplace_back(i, 1);
  auto right = engine::Parallelize(&cluster, std::move(steps), 4);
  auto countdown = [&right](const auto& b) {
    engine::IterateOptions options;
    options.max_iterations = kIterRounds + 1;
    options.label = "bench-countdown";
    Bag<P> out = engine::Iterate(
        b.cluster(), b,
        [&right](Bag<P> s, int64_t) -> Bag<P> {
          auto joined = engine::BroadcastJoin(s, right);
          return engine::Map(
              joined,
              [](const std::pair<int64_t, std::pair<int64_t, int64_t>>& p) {
                return P(p.first, p.second.first - p.second.second);
              });
        },
        [](Bag<P>* s, int64_t) {
          return !engine::AnyMatch(*s,
                                   [](const P& p) { return p.second > 0; });
        },
        options);
    out.Force();
    return out;
  };
  MeasureOp(state, "iteration/countdown", &cluster, bag, countdown);
  state.counters["native_iterations"] =
      static_cast<double>(cluster.metrics().native_iterations);
  state.counters["convergence_in_engine"] =
      static_cast<double>(cluster.metrics().convergence_checks_in_engine);
  state.counters["broadcast_reuses"] =
      static_cast<double>(cluster.metrics().hoisted_broadcast_reuses);
}

#define THROUGHPUT_ARGS                                               \
  ArgsProduct({{0, 1}})                                               \
      ->UseManualTime()                                               \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Map_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_Repartition_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_PartitionByKey_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_ReduceByKey_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_GroupByKey_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_Distinct_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_RepartitionJoin_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_BroadcastJoin_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_Repartition_Large)->THROUGHPUT_ARGS;
BENCHMARK(BM_ReduceByKey_Large)->THROUGHPUT_ARGS;
BENCHMARK(BM_GroupByKey_Large)->THROUGHPUT_ARGS;
BENCHMARK(BM_Distinct_Large)->THROUGHPUT_ARGS;

// pool x budget grid for the out-of-core family.
#define BUDGET_ARGS                                                   \
  ArgsProduct({{0, 1}, {0, 1}})                                       \
      ->UseManualTime()                                               \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_ShuffleGroup_Budget)->BUDGET_ARGS;

// pool x storm grid for the chaos family.
BENCHMARK(BM_ShuffleGroup_Chaos)->BUDGET_ARGS;

BENCHMARK(BM_Iterate_Countdown)->THROUGHPUT_ARGS;
BENCHMARK(BM_Chain_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_Chain_Large)->THROUGHPUT_ARGS;
BENCHMARK(BM_ChainDeep_Small)->THROUGHPUT_ARGS;
BENCHMARK(BM_ChainDeep_Large)->THROUGHPUT_ARGS;

}  // namespace
}  // namespace matryoshka::bench

MATRYOSHKA_BENCH_MAIN();
