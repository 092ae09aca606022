// Locks down that the real thread pool (ClusterConfig::execute_parallel) is
// invisible to everything but wall-clock time: the full operator suite must
// produce identical results AND identical simulated metrics with the pool on
// and off, including under an active fault plan. The cost model is charged
// from the driver thread only, so nothing may depend on execution order.
//
// The FusionDeterminismTest section extends the same contract to the fused
// narrow-op layer: with default chains, every narrow op and every
// wide-op/action forcing point must produce bit-identical data (contents
// AND order, key_partitions), bit-identical Metrics, and byte-identical
// exported traces versus the per-op reference (fusion.max_chain_depth = 1,
// where no two narrow ops share a pass) — clean, under an active
// FaultPlan, and under a RecoveryPolicy with auto-checkpointing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/parallel_shuffle.h"
#include "engine/recovery.h"
#include "engine/shuffle.h"
#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"

namespace matryoshka::engine {
namespace {

ClusterConfig Config(bool parallel) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = parallel;
  // Pin the pool size so real multi-thread scatter/concat runs regardless of
  // how many hardware threads the host exposes (CI containers often pin 1).
  cfg.pool_threads = 4;
  return cfg;
}

struct SuiteOutcome {
  Metrics metrics;
  bool ok = false;
  // Sorted driver-side snapshots of every operator chain's output.
  std::vector<int64_t> ints;
  std::vector<std::pair<int64_t, int64_t>> pairs;
  std::vector<int64_t> extras;
  int64_t count = 0;
  int64_t reduced = 0;
};

/// Runs one fixed program through every operator family and snapshots both
/// the results and the complete metrics.
SuiteOutcome RunSuite(ClusterConfig cfg) {
  Cluster c(cfg);
  SuiteOutcome out;

  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 3000; ++i) kv.emplace_back(i % 64, i % 11);
  auto pairs = Parallelize(&c, kv, 8);

  // Narrow chain.
  auto mapped = Map(pairs, [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first, p.second + 1);
  });
  auto filtered =
      Filter(mapped, [](const std::pair<int64_t, int64_t>& p) {
        return p.second % 3 != 0;
      });
  auto flat = FlatMapValues(filtered, [](int64_t v) {
    return std::vector<int64_t>{v, v * 2};
  });
  auto repartitioned = Repartition(flat, 8);
  auto with_ids = ZipWithUniqueId(Values(repartitioned));
  auto even_keys = Filter(Keys(pairs), [](int64_t k) { return k % 2 == 0; });

  // Wide operators.
  auto reduced_bag = ReduceByKey(
      repartitioned, [](int64_t a, int64_t b) { return a + b; }, 8);
  auto grouped = GroupByKey(filtered, 8);
  auto grouped_sizes = MapValues(grouped, [](const std::vector<int64_t>& g) {
    return static_cast<int64_t>(g.size());
  });
  auto distinct = Distinct(Keys(filtered), 8);
  auto summed = ReduceByKey(
      filtered, [](int64_t a, int64_t b) { return a + b; }, 8);

  // Joins.
  auto joined = RepartitionJoin(reduced_bag, summed, 8);
  auto joined_flat = MapValues(
      joined, [](const std::pair<int64_t, int64_t>& vw) {
        return vw.first + vw.second;
      });
  std::vector<std::pair<int64_t, int64_t>> small_kv;
  for (int64_t i = 0; i < 16; ++i) small_kv.emplace_back(i, i * 10);
  auto small = Parallelize(&c, small_kv, 2, /*scale=*/1.0);
  auto bjoined = BroadcastJoin(reduced_bag, small);
  auto louter = LeftOuterJoin(small, reduced_bag, 8);
  auto louter_sums = MapValues(
      LeftOuterJoin(reduced_bag, small, 8),
      [](const std::pair<int64_t, std::optional<int64_t>>& vw) {
        return vw.first + vw.second.value_or(-1);
      });
  auto keyed_distinct = Map(distinct, [](int64_t k) {
    return std::pair<int64_t, int64_t>(k % 16, k);
  });
  auto crossed = BroadcastJoin(keyed_distinct, small);
  auto crossed_sums = Map(
      crossed,
      [](const std::pair<int64_t, std::pair<int64_t, int64_t>>& p) {
        return p.second.first * 1000 + p.second.second;
      });

  // Union.
  auto unioned = Union(distinct, Distinct(even_keys, 8));

  // Actions.
  out.count = Count(unioned);
  for (int64_t v : Collect(Values(summed))) out.reduced += v;

  auto snap_pairs = [](std::vector<std::pair<int64_t, int64_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto snap_ints = [](std::vector<int64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };

  out.pairs = snap_pairs(Collect(joined_flat));
  auto more_pairs = snap_pairs(Collect(grouped_sizes));
  out.pairs.insert(out.pairs.end(), more_pairs.begin(), more_pairs.end());
  auto bj = snap_pairs(Collect(MapValues(
      bjoined, [](const std::pair<int64_t, int64_t>& vw) {
        return vw.first - vw.second;
      })));
  out.pairs.insert(out.pairs.end(), bj.begin(), bj.end());
  auto lo = snap_pairs(Collect(louter_sums));
  out.pairs.insert(out.pairs.end(), lo.begin(), lo.end());

  out.ints = snap_ints(Collect(crossed_sums));
  auto extra1 = snap_ints(Collect(unioned));
  auto extra2 = snap_ints(Collect(
      Map(with_ids, [](const std::pair<uint64_t, int64_t>& p) {
        return static_cast<int64_t>(p.first);
      })));
  out.extras = extra1;
  out.extras.insert(out.extras.end(), extra2.begin(), extra2.end());
  (void)NotEmpty(louter);

  out.ok = c.ok();
  out.metrics = c.metrics();
  return out;
}

// The simulated cost model must be bit-identical: the pool may only change
// wall-clock time, never a single charged metric.
void ExpectSameMetrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.simulated_time_s, b.simulated_time_s);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.elements_processed, b.elements_processed);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.broadcast_bytes, b.broadcast_bytes);
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes);
  EXPECT_EQ(a.spill_events, b.spill_events);
  EXPECT_EQ(a.peak_task_bytes, b.peak_task_bytes);
  EXPECT_EQ(a.peak_machine_bytes, b.peak_machine_bytes);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.speculative_launches, b.speculative_launches);
  EXPECT_EQ(a.machines_lost, b.machines_lost);
  EXPECT_EQ(a.recovery_time_s, b.recovery_time_s);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  EXPECT_EQ(a.driver_retries, b.driver_retries);
  EXPECT_EQ(a.plan_fallbacks, b.plan_fallbacks);
}

void ExpectSameOutcome(const SuiteOutcome& a, const SuiteOutcome& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.ints, b.ints);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.extras, b.extras);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.reduced, b.reduced);
  ExpectSameMetrics(a.metrics, b.metrics);
}

// --- Per-operator bit-identity -------------------------------------------
//
// The suite tests above compare sorted snapshots; the checks below are
// stricter: for each wide operator the pool-off and pool-on (4 threads)
// outputs must match partition by partition, element by element, IN ORDER —
// the exact guarantee of the ParallelScatter kernel — along with the
// key_partitions metadata and the full simulated metrics.

template <typename T>
void ExpectBitIdenticalBags(const Bag<T>& a, const Bag<T>& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  EXPECT_EQ(a.key_partitions(), b.key_partitions());
  for (int64_t i = 0; i < a.num_partitions(); ++i) {
    EXPECT_EQ(a.partitions()[static_cast<std::size_t>(i)],
              b.partitions()[static_cast<std::size_t>(i)])
        << "partition " << i << " differs between pool-off and pool-on";
  }
}

ClusterConfig WithFaults(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.straggler_fraction = 0.1;
  cfg.faults.straggler_slowdown = 4.0;
  cfg.faults.speculative_execution = true;
  return cfg;
}

Bag<std::pair<int64_t, int64_t>> MakePairs(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 5000; ++i) kv.emplace_back((i * 37) % 128, i % 17);
  return Parallelize(c, kv, 8);
}

Bag<std::pair<int64_t, int64_t>> MakeSmallPairs(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 32; ++i) kv.emplace_back(i * 4, i * 10);
  return Parallelize(c, kv, 2, /*scale=*/1.0);
}

/// Runs `make_op` (Cluster* -> Bag) once with the pool off and once with a
/// 4-thread pool — clean and again under an active FaultPlan — and requires
/// bit-identical bags and metrics each time.
template <typename MakeOp>
void ExpectOpBitIdentical(const MakeOp& make_op) {
  for (bool faulty : {false, true}) {
    ClusterConfig off_cfg = Config(false);
    ClusterConfig on_cfg = Config(true);
    if (faulty) {
      off_cfg = WithFaults(off_cfg);
      on_cfg = WithFaults(on_cfg);
    }
    Cluster off(off_cfg);
    Cluster on(on_cfg);
    auto a = make_op(&off);
    auto b = make_op(&on);
    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(on.ok());
    ExpectBitIdenticalBags(a, b);
    ExpectSameMetrics(off.metrics(), on.metrics());
  }
}

TEST(ParallelDeterminismTest, ScatterKernelMatchesReferenceLoop) {
  // The kernel's ground truth: the sequential producer-order scatter loop.
  // Skewed, empty, and ragged producers; pool sizes 1..4 plus no pool.
  std::vector<std::vector<int64_t>> inputs(7);
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    if (p == 3) continue;  // leave one producer empty
    for (std::size_t j = 0; j < 100 * p * p + 5; ++j) {
      inputs[p].push_back(static_cast<int64_t>(p * 131071 + j * 2654435761u));
    }
  }
  const std::size_t kParts = 9;
  auto part_of = [&](int64_t x) {
    return static_cast<std::size_t>(static_cast<uint64_t>(x) % kParts);
  };
  std::vector<std::vector<int64_t>> expected(kParts);
  for (const auto& in : inputs) {
    for (int64_t x : in) expected[part_of(x)].push_back(x);
  }
  EXPECT_EQ(internal::ParallelScatter<int64_t>(nullptr, inputs, kParts,
                                               part_of),
            expected);
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    EXPECT_EQ(internal::ParallelScatter<int64_t>(&pool, inputs, kParts,
                                                 part_of),
              expected)
        << "with a " << threads << "-thread pool";
  }
}

TEST(ParallelDeterminismTest, RepartitionBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return Repartition(MakePairs(c), 5); });
}

TEST(ParallelDeterminismTest, PartitionByKeyBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return PartitionByKey(MakePairs(c), 8); });
}

TEST(ParallelDeterminismTest, ReduceByKeyBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return ReduceByKey(
        MakePairs(c), [](int64_t a, int64_t b) { return a + b; }, 8);
  });
}

TEST(ParallelDeterminismTest, GroupByKeyBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return GroupByKey(MakePairs(c), 8); });
}

TEST(ParallelDeterminismTest, DistinctBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return Distinct(Keys(MakePairs(c)), 8); });
}

TEST(ParallelDeterminismTest, RepartitionJoinBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    auto pairs = MakePairs(c);
    auto reduced = ReduceByKey(
        pairs, [](int64_t a, int64_t b) { return a + b; }, 8);
    return RepartitionJoin(pairs, reduced, 8);
  });
}

TEST(ParallelDeterminismTest, BroadcastJoinBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return BroadcastJoin(MakePairs(c), MakeSmallPairs(c));
  });
}

TEST(ParallelDeterminismTest, LeftOuterJoinBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return LeftOuterJoin(MakePairs(c), MakeSmallPairs(c), 8);
  });
}

TEST(ParallelDeterminismTest, PoolDoesNotPerturbResultsOrCostModel) {
  SuiteOutcome serial = RunSuite(Config(false));
  SuiteOutcome parallel = RunSuite(Config(true));
  ASSERT_TRUE(serial.ok);
  EXPECT_GT(serial.count, 0);
  ExpectSameOutcome(serial, parallel);
}

TEST(ParallelDeterminismTest, PoolIsRepeatableAcrossRuns) {
  SuiteOutcome first = RunSuite(Config(true));
  SuiteOutcome second = RunSuite(Config(true));
  ExpectSameOutcome(first, second);
}

TEST(ParallelDeterminismTest, PoolDoesNotPerturbFaultInjection) {
  // Fault draws are keyed on (seed, stage, task), not on execution order, so
  // an active plan must stay bit-identical under the pool too.
  ClusterConfig serial_cfg = Config(false);
  ClusterConfig parallel_cfg = Config(true);
  for (ClusterConfig* cfg : {&serial_cfg, &parallel_cfg}) {
    cfg->faults.seed = 5;
    cfg->faults.task_failure_prob = 0.05;
    cfg->faults.straggler_fraction = 0.1;
    cfg->faults.straggler_slowdown = 4.0;
    cfg->faults.speculative_execution = true;
  }
  SuiteOutcome serial = RunSuite(serial_cfg);
  SuiteOutcome parallel = RunSuite(parallel_cfg);
  ASSERT_TRUE(serial.ok);
  EXPECT_GT(serial.metrics.failed_tasks, 0);
  ExpectSameOutcome(serial, parallel);
}

// --- Fusion bit-identity --------------------------------------------------
//
// Every test above already runs default chains. The checks below pin the
// fusion contract explicitly: at max_chain_depth = 1 every narrow op runs
// as its own pass, and default chains must match that per-op reference bit
// for bit on data, metrics, and traces — with all charging done at
// composition time.

/// The per-op reference: a chain depth of 1 forces every narrow op's
/// output before the next op composes, so no two ops share a pass.
ClusterConfig PerOp(ClusterConfig cfg) {
  cfg.fusion.max_chain_depth = 1;
  return cfg;
}

ClusterConfig WithRecovery(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.max_task_retries = 8;
  cfg.faults.machine_loss_times_s = {0.01};
  cfg.recovery.auto_checkpoint = true;
  cfg.recovery.min_checkpoint_lineage = 2;
  cfg.recovery.checkpoint_bytes_per_s = 1e12;  // checkpoints almost free
  cfg.recovery.degraded_replanning = true;
  return cfg;
}

using PairBag = Bag<std::pair<int64_t, int64_t>>;

/// A map -> filter -> mapValues chain (pending under fusion: the filter
/// demotes the tracked counts to a bound, so the trailing mapValues starts
/// a fresh chain on the forced filter output).
PairBag NarrowChain(Cluster* c) {
  auto mapped = Map(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first, p.second + 3);
  });
  auto filtered = Filter(mapped, [](const std::pair<int64_t, int64_t>& p) {
    return p.second % 5 != 0;
  });
  return MapValues(filtered, [](int64_t v) { return v * 7; });
}

/// Runs `make_op` (Cluster* -> Bag) per-op and with default chains — pool
/// off/on × {clean, active FaultPlan, FaultPlan + RecoveryPolicy with
/// auto-checkpointing} — and requires bit-identical bags (contents AND
/// order, key_partitions) and full Metrics each time. Metrics are compared
/// BEFORE the fused result is materialized: the fusion contract charges
/// everything at composition time, and forcing must charge nothing.
template <typename MakeOp>
void ExpectFusionBitIdentical(const MakeOp& make_op) {
  for (int regime = 0; regime < 3; ++regime) {
    for (bool parallel : {false, true}) {
      ClusterConfig base = Config(parallel);
      if (regime == 1) base = WithFaults(base);
      if (regime == 2) base = WithRecovery(base);
      Cluster per_op(PerOp(base));
      Cluster fused(base);
      auto per_op_bag = make_op(&per_op);
      auto fused_bag = make_op(&fused);
      ASSERT_EQ(per_op.ok(), fused.ok())
          << "regime " << regime << " pool " << parallel;
      ExpectSameMetrics(per_op.metrics(), fused.metrics());
      ExpectBitIdenticalBags(per_op_bag, fused_bag);
      // ExpectBitIdenticalBags forced any pending chain; that must not have
      // added a single charge.
      ExpectSameMetrics(per_op.metrics(), fused.metrics());
    }
  }
}

// Per narrow op: composition must match per-op execution exactly.

TEST(FusionDeterminismTest, MapChainBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c) {
    auto once = Map(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first, p.second + 1);
    });
    return Map(once, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.second, p.first * 2);
    });
  });
}

TEST(FusionDeterminismTest, FilterBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c) {
    return Filter(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
      return (p.first + p.second) % 3 != 0;
    });
  });
}

TEST(FusionDeterminismTest, FlatMapBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c) {
    return FlatMap(Keys(MakePairs(c)), [](int64_t k) {
      return std::vector<int64_t>{k, -k};
    });
  });
}

TEST(FusionDeterminismTest, MapValuesBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c) {
    return MapValues(MakePairs(c), [](int64_t v) { return v * 11 - 5; });
  });
}

TEST(FusionDeterminismTest, FlatMapValuesBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c) {
    return FlatMapValues(MakePairs(c), [](int64_t v) {
      return std::vector<int64_t>{v, v + 1, v + 2};
    });
  });
}

TEST(FusionDeterminismTest, ZipWithUniqueIdBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c) {
    // Composed onto a size-preserving chain: stream offsets must equal the
    // materialized offsets, so the assigned ids match the per-op path.
    auto mapped = Map(Keys(MakePairs(c)), [](int64_t k) { return k * 3; });
    auto zipped = ZipWithUniqueId(mapped);
    return Map(zipped, [](const std::pair<uint64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(static_cast<int64_t>(p.first),
                                         p.second);
    });
  });
}

TEST(FusionDeterminismTest, CardinalityChangingChainBitIdentical) {
  // filter -> map -> filter: every op after the first filter composes on a
  // forced boundary; the data and charges must still match per-op exactly.
  ExpectFusionBitIdentical([](Cluster* c) {
    auto filtered =
        Filter(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
          return p.first % 2 == 0;
        });
    auto mapped = Map(filtered, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first / 2, p.second);
    });
    return Filter(mapped, [](const std::pair<int64_t, int64_t>& p) {
      return (p.first + p.second) % 10 < 7;
    });
  });
}

TEST(FusionDeterminismTest, DepthCapForcesBoundary) {
  // A chain longer than max_chain_depth must force mid-chain and keep both
  // data and metrics identical to per-op execution. The loop re-assigns a
  // plain Bag, so every op after the first also crosses the erased hop.
  for (bool parallel : {false, true}) {
    ClusterConfig capped_cfg = Config(parallel);
    capped_cfg.fusion.max_chain_depth = 2;
    Cluster per_op(PerOp(Config(parallel)));
    Cluster capped(capped_cfg);
    auto program = [](Cluster* c) {
      auto bag = MakePairs(c);
      for (int i = 0; i < 5; ++i) {
        bag = Map(bag, [](const std::pair<int64_t, int64_t>& p) {
          return std::pair<int64_t, int64_t>(p.first, p.second + 1);
        });
      }
      return bag;
    };
    auto reference = program(&per_op);
    auto fused = program(&capped);
    ExpectSameMetrics(per_op.metrics(), capped.metrics());
    ExpectBitIdenticalBags(reference, fused);
  }
}

// Per wide-op forcing point: a pending chain consumed by each wide operator
// must materialize to exactly the per-op input, leaving the wide op's
// output and charges bit-identical.

TEST(FusionDeterminismTest, ForcedByRepartition) {
  ExpectFusionBitIdentical(
      [](Cluster* c) { return Repartition(NarrowChain(c), 5); });
}

TEST(FusionDeterminismTest, ForcedByPartitionByKey) {
  ExpectFusionBitIdentical(
      [](Cluster* c) { return PartitionByKey(NarrowChain(c), 8); });
}

TEST(FusionDeterminismTest, ForcedByReduceByKeyBothPaths) {
  // Shuffle path.
  ExpectFusionBitIdentical([](Cluster* c) {
    return ReduceByKey(
        NarrowChain(c), [](int64_t a, int64_t b) { return a + b; }, 8);
  });
  // Co-partitioned narrow path: a key-preserving pending chain over an
  // already-partitioned bag.
  ExpectFusionBitIdentical([](Cluster* c) {
    auto keyed = PartitionByKey(MakePairs(c), 8);
    auto chain = MapValues(keyed, [](int64_t v) { return v + 2; });
    return ReduceByKey(
        chain, [](int64_t a, int64_t b) { return a + b; }, 8);
  });
}

TEST(FusionDeterminismTest, ForcedByGroupByKeyAndDistinct) {
  ExpectFusionBitIdentical([](Cluster* c) {
    auto grouped = GroupByKey(NarrowChain(c), 8);
    return MapValues(grouped, [](const std::vector<int64_t>& g) {
      return static_cast<int64_t>(g.size());
    });
  });
  ExpectFusionBitIdentical(
      [](Cluster* c) { return Distinct(Keys(NarrowChain(c)), 8); });
}

TEST(FusionDeterminismTest, ForcedByJoins) {
  ExpectFusionBitIdentical([](Cluster* c) {
    auto joined = RepartitionJoin(NarrowChain(c), MakeSmallPairs(c), 8);
    return MapValues(joined, [](const std::pair<int64_t, int64_t>& vw) {
      return vw.first + vw.second;
    });
  });
  ExpectFusionBitIdentical([](Cluster* c) {
    auto joined = BroadcastJoin(NarrowChain(c), MakeSmallPairs(c));
    return MapValues(joined, [](const std::pair<int64_t, int64_t>& vw) {
      return vw.first - vw.second;
    });
  });
  ExpectFusionBitIdentical([](Cluster* c) {
    auto joined = LeftOuterJoin(MakeSmallPairs(c), NarrowChain(c), 8);
    return MapValues(
        joined, [](const std::pair<int64_t, std::optional<int64_t>>& vw) {
          return vw.first + vw.second.value_or(-1);
        });
  });
}

TEST(FusionDeterminismTest, ForcedByUnion) {
  ExpectFusionBitIdentical([](Cluster* c) {
    auto left = Map(Keys(MakePairs(c)), [](int64_t k) { return k + 1; });
    return Union(left, Keys(MakeSmallPairs(c)));
  });
}

TEST(FusionDeterminismTest, ForcedByCheckpoint) {
  ExpectFusionBitIdentical(
      [](Cluster* c) { return Checkpoint(NarrowChain(c)); });
}

TEST(FusionDeterminismTest, ActionsForceAndMatch) {
  // Count / NotEmpty / Collect on a pending chain must return the per-op
  // values and charge the per-op metrics.
  for (int regime = 0; regime < 3; ++regime) {
    ClusterConfig base = Config(true);
    if (regime == 1) base = WithFaults(base);
    if (regime == 2) base = WithRecovery(base);
    Cluster per_op(PerOp(base));
    Cluster fused(base);
    auto run = [](Cluster* c) {
      auto chain = NarrowChain(c);
      auto keys = Keys(NarrowChain(c));
      return std::tuple<int64_t, bool, int64_t,
                        std::vector<std::pair<int64_t, int64_t>>,
                        std::vector<int64_t>>(
          Count(chain), NotEmpty(chain), Count(keys), Collect(NarrowChain(c)),
          Collect(keys));
    };
    EXPECT_EQ(run(&per_op), run(&fused)) << "regime " << regime;
    ExpectSameMetrics(per_op.metrics(), fused.metrics());
  }
}

// Suite level: the full operator program, the fault program, and the
// recovery program must be outcome- and metric-identical across chain
// depths.

TEST(FusionDeterminismTest, FusionDoesNotPerturbSuiteResultsOrCostModel) {
  SuiteOutcome per_op = RunSuite(PerOp(Config(true)));
  ASSERT_TRUE(per_op.ok);
  EXPECT_GT(per_op.count, 0);
  ExpectSameOutcome(per_op, RunSuite(Config(true)));
}

TEST(FusionDeterminismTest, FusionDoesNotPerturbFaultInjection) {
  SuiteOutcome per_op = RunSuite(WithFaults(PerOp(Config(true))));
  ASSERT_TRUE(per_op.ok);
  EXPECT_GT(per_op.metrics.failed_tasks, 0);
  ExpectSameOutcome(per_op, RunSuite(WithFaults(Config(true))));
}

TEST(FusionDeterminismTest, FusionDoesNotPerturbRecoveryFeatures) {
  SuiteOutcome per_op = RunSuite(WithRecovery(PerOp(Config(true))));
  ASSERT_TRUE(per_op.ok);
  EXPECT_EQ(per_op.metrics.machines_lost, 1);
  EXPECT_GT(per_op.metrics.checkpoints_written, 0);
  ExpectSameOutcome(per_op, RunSuite(WithRecovery(Config(true))));
}

/// Exported trace of a narrow-chain + wide-op + action program (the obs
/// suite's byte-identity pattern).
std::string FusionTraceFor(ClusterConfig cfg) {
  Cluster c(cfg);
  obs::TraceRecorder rec;
  rec.SetRunNameHint("fusion-suite");
  c.set_trace(&rec);
  auto chain = NarrowChain(&c);
  auto reduced = ReduceByKey(
      chain, [](int64_t a, int64_t b) { return a + b; }, 8);
  (void)Count(reduced);
  (void)Collect(Keys(chain));
  EXPECT_TRUE(c.ok());
  return obs::ChromeTraceToString(rec);
}

TEST(FusionDeterminismTest, TraceIsByteIdenticalAcrossFusionArms) {
  for (int regime = 0; regime < 3; ++regime) {
    ClusterConfig base = Config(true);
    if (regime == 1) base = WithFaults(base);
    if (regime == 2) base = WithRecovery(base);
    EXPECT_EQ(FusionTraceFor(PerOp(base)), FusionTraceFor(base))
        << "regime " << regime;
  }
}

TEST(ParallelDeterminismTest, PoolDoesNotPerturbRecoveryFeatures) {
  // Auto-checkpointing, degraded re-planning, and machine loss are all
  // charged from the driver thread; the pool must not perturb a single new
  // counter either.
  ClusterConfig serial_cfg = Config(false);
  ClusterConfig parallel_cfg = Config(true);
  for (ClusterConfig* cfg : {&serial_cfg, &parallel_cfg}) {
    cfg->faults.seed = 5;
    cfg->faults.task_failure_prob = 0.05;
    cfg->faults.max_task_retries = 8;
    cfg->faults.machine_loss_times_s = {0.01};
    cfg->recovery.auto_checkpoint = true;
    cfg->recovery.min_checkpoint_lineage = 2;
    cfg->recovery.checkpoint_bytes_per_s = 1e12;  // checkpoints almost free
    cfg->recovery.degraded_replanning = true;
  }
  SuiteOutcome serial = RunSuite(serial_cfg);
  SuiteOutcome parallel = RunSuite(parallel_cfg);
  ASSERT_TRUE(serial.ok);
  EXPECT_EQ(serial.metrics.machines_lost, 1);
  EXPECT_GT(serial.metrics.checkpoints_written, 0);
  ExpectSameOutcome(serial, parallel);
}

}  // namespace
}  // namespace matryoshka::engine
