// Native iteration (engine::Iterate) contract tests.
//
//  - The three iterative workloads and the lifted do-while run through one
//    loop: default chains must match the per-op reference
//    (fusion.max_chain_depth = 1) on driver-visible outputs, partitioning
//    metadata (key_partitions), and the complete simulated Metrics — with
//    the thread pool on or off, under clean, fault, and recovery/checkpoint
//    regimes — and every run must report in-engine loop activity through
//    the real-execution counters (native_iterations,
//    convergence_checks_in_engine).
//  - The fused convergence helpers replay the op sequences they replace:
//    FilterMapCount equals Map(Filter) + Count and AnyMatch equals
//    NotEmpty(Filter) on data, key_partitions, lineage, and every simulated
//    metric (ConvergenceReplayTest).
//  - The loop-invariant broadcast residency registry: re-broadcasting an
//    already resident payload charges nothing and counts one reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/matryoshka.h"
#include "datagen/datagen.h"
#include "engine/bag.h"
#include "engine/iterate.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/recovery.h"
#include "engine/shuffle.h"
#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"
#include "workloads/connected_components.h"
#include "workloads/kmeans.h"
#include "workloads/pagerank.h"

namespace matryoshka {
namespace {

using engine::Bag;
using engine::Cluster;
using engine::ClusterConfig;
using engine::Metrics;
using engine::Parallelize;

ClusterConfig Config(bool parallel) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = parallel;
  cfg.pool_threads = 4;
  return cfg;
}

/// The per-op reference: a chain depth of 1 forces every narrow op's
/// output before the next op composes, so no two ops share a pass.
ClusterConfig PerOp(ClusterConfig cfg) {
  cfg.fusion.max_chain_depth = 1;
  return cfg;
}

ClusterConfig WithFaults(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.straggler_fraction = 0.1;
  cfg.faults.straggler_slowdown = 4.0;
  cfg.faults.speculative_execution = true;
  return cfg;
}

ClusterConfig WithRecovery(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.max_task_retries = 8;
  cfg.faults.machine_loss_times_s = {0.01};
  cfg.recovery.auto_checkpoint = true;
  cfg.recovery.min_checkpoint_lineage = 2;
  cfg.recovery.checkpoint_bytes_per_s = 1e12;
  cfg.recovery.degraded_replanning = true;
  return cfg;
}

/// Applies the fault regime (0 = clean, 1 = faults, 2 = recovery).
ClusterConfig WithRegime(ClusterConfig cfg, int regime) {
  if (regime == 1) return WithFaults(cfg);
  if (regime == 2) return WithRecovery(cfg);
  return cfg;
}

/// Every simulated-cost-model field. The three real-execution iteration
/// counters are deliberately NOT here: they describe how a loop executed
/// and are asserted separately.
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

/// The loop's observable (real-execution) side: the engine must report
/// in-engine loop activity.
void ExpectIterationCounters(const Metrics& m) {
  EXPECT_GT(m.native_iterations, 0);
  EXPECT_GT(m.convergence_checks_in_engine, 0);
}

// ---------- Workload arms ----------

struct KMeansOutcome {
  bool ok = false;
  std::vector<std::pair<int64_t, workloads::KMeansModel>> groups;
  Metrics metrics;
};

KMeansOutcome RunKMeansArm(const ClusterConfig& cfg) {
  Cluster c(cfg);
  auto points = datagen::GenerateGroupedPoints(600, 4, 3, 21);
  auto bag = Parallelize(&c, points, 8);
  workloads::KMeansParams params;
  params.k = 3;
  params.max_iterations = 6;
  params.epsilon = 1e-3;
  auto r = workloads::KMeansMatryoshka(&c, bag, params);
  KMeansOutcome out;
  out.ok = r.ok();
  out.groups = std::move(r.per_group);
  std::sort(out.groups.begin(), out.groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.metrics = r.metrics;
  return out;
}

struct PageRankOutcome {
  bool ok = false;
  std::vector<std::pair<int64_t, double>> groups;
  Metrics metrics;
};

PageRankOutcome RunPageRankArm(const ClusterConfig& cfg) {
  Cluster c(cfg);
  auto edges = datagen::GenerateGroupedEdges(600, 4, 16, 0.0, 13);
  auto bag = Parallelize(&c, edges, 8);
  workloads::PageRankParams params;
  params.iterations = 4;
  auto r = workloads::PageRankMatryoshka(&c, bag, params);
  PageRankOutcome out;
  out.ok = r.ok();
  out.groups = std::move(r.per_group);
  std::sort(out.groups.begin(), out.groups.end());
  out.metrics = r.metrics;
  return out;
}

struct CcOutcome {
  bool ok = false;
  /// Raw partition-by-partition snapshot: data, order, AND partitioning.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> partitions;
  int64_t key_partitions = 0;
  Metrics metrics;
};

CcOutcome RunCcArm(const ClusterConfig& cfg) {
  Cluster c(cfg);
  auto edges = datagen::GenerateComponents(3, 8, 4, 37);
  auto bag = Parallelize(&c, edges, 8);
  auto comps = workloads::ConnectedComponents(bag, 100);
  CcOutcome out;
  out.ok = c.ok();
  if (out.ok) {
    out.key_partitions = comps.key_partitions();
    for (int64_t i = 0; i < comps.num_partitions(); ++i) {
      out.partitions.push_back(
          comps.partitions()[static_cast<std::size_t>(i)]);
    }
  }
  out.metrics = c.metrics();
  return out;
}

void ExpectSameKMeans(const KMeansOutcome& ref, const KMeansOutcome& got) {
  ASSERT_EQ(ref.ok, got.ok);
  ASSERT_EQ(ref.groups.size(), got.groups.size());
  for (std::size_t i = 0; i < ref.groups.size(); ++i) {
    EXPECT_EQ(ref.groups[i].first, got.groups[i].first);
    const auto& a = ref.groups[i].second;
    const auto& b = got.groups[i].second;
    EXPECT_EQ(a.iterations, b.iterations) << "run " << ref.groups[i].first;
    EXPECT_EQ(a.means, b.means) << "run " << ref.groups[i].first;
    EXPECT_EQ(a.inertia, b.inertia) << "run " << ref.groups[i].first;
  }
  ExpectSameMetrics(ref.metrics, got.metrics);
}

// ---------- Bit-identity across chain depths and pools ----------

/// regime x chain depth x pool sweep. Every arm is compared against the
/// per-op serial reference of its regime: `_eager` arms run at
/// max_chain_depth = 1 (every narrow op its own pass), `_fused` arms with
/// default chains.
class IterateBitIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {
 protected:
  ClusterConfig Arm() const {
    auto [regime, fused, pool] = GetParam();
    ClusterConfig cfg = fused ? Config(pool) : PerOp(Config(pool));
    return WithRegime(cfg, regime);
  }
  ClusterConfig Reference() const {
    return WithRegime(PerOp(Config(false)), std::get<0>(GetParam()));
  }
};

TEST_P(IterateBitIdentityTest, KMeans) {
  auto ref = RunKMeansArm(Reference());
  auto got = RunKMeansArm(Arm());
  ExpectSameKMeans(ref, got);
  if (got.ok) ExpectIterationCounters(got.metrics);
}

TEST_P(IterateBitIdentityTest, PageRank) {
  auto ref = RunPageRankArm(Reference());
  auto got = RunPageRankArm(Arm());
  ASSERT_EQ(ref.ok, got.ok);
  ASSERT_EQ(ref.groups.size(), got.groups.size());
  for (std::size_t i = 0; i < ref.groups.size(); ++i) {
    EXPECT_EQ(ref.groups[i].first, got.groups[i].first);
    EXPECT_EQ(ref.groups[i].second, got.groups[i].second)
        << "group " << ref.groups[i].first;
  }
  ExpectSameMetrics(ref.metrics, got.metrics);
  if (got.ok) ExpectIterationCounters(got.metrics);
}

TEST_P(IterateBitIdentityTest, ConnectedComponents) {
  auto ref = RunCcArm(Reference());
  auto got = RunCcArm(Arm());
  ASSERT_EQ(ref.ok, got.ok);
  EXPECT_EQ(ref.key_partitions, got.key_partitions);
  ASSERT_EQ(ref.partitions.size(), got.partitions.size());
  for (std::size_t i = 0; i < ref.partitions.size(); ++i) {
    EXPECT_EQ(ref.partitions[i], got.partitions[i]) << "partition " << i;
  }
  ExpectSameMetrics(ref.metrics, got.metrics);
  if (got.ok) ExpectIterationCounters(got.metrics);
}

std::string BitIdentityArmName(
    const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& info) {
  static const char* kRegimes[] = {"clean", "faults", "recovery"};
  std::string n = kRegimes[std::get<0>(info.param)];
  n += std::get<1>(info.param) ? "_fused" : "_eager";
  n += std::get<2>(info.param) ? "_pool" : "_serial";
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, IterateBitIdentityTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Bool(),
                       ::testing::Bool()),
    BitIdentityArmName);

// ---------- The convergence helpers replay the sequences they replace ----

using Pair = std::pair<int64_t, int64_t>;

/// A key-partitioned narrow-op output: pending, or checkpointed under the
/// recovery regime, whose probes then fire on the filter and map outputs
/// too.
Bag<Pair> ReplayInput(Cluster* c) {
  std::vector<Pair> data;
  for (int64_t i = 0; i < 600; ++i) data.emplace_back(i % 13, i);
  auto keyed = engine::PartitionByKey(Parallelize(c, data, 8), 8);
  return engine::MapValues(keyed, [](int64_t v) { return v + 1; });
}

/// regime x pool x selectivity; selectivity is the share of elements the
/// predicate drops: none, a third, all.
class ConvergenceReplayTest
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {
 protected:
  ClusterConfig Cfg() const {
    return WithRegime(Config(std::get<1>(GetParam())),
                      std::get<0>(GetParam()));
  }
  bool Keep(const Pair& p) const {
    switch (std::get<2>(GetParam())) {
      case 0:
        return true;
      case 1:
        return p.second % 3 != 0;
      default:
        return false;
    }
  }
};

struct ReplayOutcome {
  bool ok = false;
  int64_t count = 0;
  std::vector<std::vector<Pair>> partitions;
  int64_t key_partitions = 0;
  int lineage_depth = 0;
  Metrics metrics;
};

ReplayOutcome Snapshot(const Cluster& c, const Bag<Pair>& mapped,
                       int64_t count) {
  ReplayOutcome out;
  out.ok = c.ok();
  out.count = count;
  out.partitions = mapped.partitions();
  out.key_partitions = mapped.key_partitions();
  out.lineage_depth = mapped.lineage_depth();
  out.metrics = c.metrics();
  return out;
}

TEST_P(ConvergenceReplayTest, FilterMapCount) {
  auto keep = [this](const Pair& p) { return Keep(p); };
  auto swap = [](const Pair& p) { return Pair(p.second, p.first); };

  Cluster seq(Cfg());
  Bag<Pair> mapped = engine::Map(engine::Filter(ReplayInput(&seq), keep),
                                 swap);
  const int64_t count = engine::Count(mapped);
  const ReplayOutcome want = Snapshot(seq, mapped, count);

  Cluster fused(Cfg());
  auto r = engine::FilterMapCount(ReplayInput(&fused), keep, swap);
  const ReplayOutcome got = Snapshot(fused, r.mapped, r.count);

  ASSERT_EQ(want.ok, got.ok);
  if (std::get<0>(GetParam()) == 2 && want.count > 0) {
    // The replay must cover the real probe path, not only its early-outs.
    EXPECT_GE(want.metrics.checkpoints_written, 3);
  }
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.partitions, got.partitions);
  EXPECT_EQ(want.key_partitions, got.key_partitions);
  EXPECT_EQ(want.lineage_depth, got.lineage_depth);
  ExpectSameMetrics(want.metrics, got.metrics);
  EXPECT_EQ(want.metrics.convergence_checks_in_engine, 0);
  EXPECT_EQ(got.metrics.convergence_checks_in_engine, got.ok ? 1 : 0);
}

TEST_P(ConvergenceReplayTest, AnyMatch) {
  auto keep = [this](const Pair& p) { return Keep(p); };

  Cluster seq(Cfg());
  const bool want = engine::NotEmpty(engine::Filter(ReplayInput(&seq), keep));

  Cluster fused(Cfg());
  const bool got = engine::AnyMatch(ReplayInput(&fused), keep);

  ASSERT_EQ(seq.ok(), fused.ok());
  EXPECT_EQ(want, got);
  EXPECT_EQ(got, std::get<2>(GetParam()) != 2 && fused.ok());
  ExpectSameMetrics(seq.metrics(), fused.metrics());
  EXPECT_EQ(fused.metrics().convergence_checks_in_engine,
            fused.ok() ? 1 : 0);
}

std::string ReplayArmName(
    const ::testing::TestParamInfo<std::tuple<int, bool, int>>& info) {
  static const char* kRegimes[] = {"clean", "faults", "recovery"};
  static const char* kDrops[] = {"drop_none", "drop_third", "drop_all"};
  std::string n = kRegimes[std::get<0>(info.param)];
  n += std::get<1>(info.param) ? "_pool_" : "_serial_";
  n += kDrops[std::get<2>(info.param)];
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ConvergenceReplayTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Bool(),
                       ::testing::Values(0, 1, 2)),
    ReplayArmName);

// ---------- Engine-level Iterate semantics ----------

TEST(IterateTest, RunsUntilConvergedAndCountsIterations) {
  Cluster c(Config(false));
  engine::IterateOptions opt;
  opt.max_iterations = 100;
  opt.label = "countdown";
  int64_t calls = 0;
  int64_t state = engine::Iterate(
      &c, int64_t{5},
      [&calls](int64_t s, int64_t) {
        ++calls;
        return s - 1;
      },
      [](int64_t* s, int64_t) { return *s == 0; }, opt);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(state, 0);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(c.metrics().native_iterations, 5);
}

TEST(IterateTest, ExhaustedBudgetFailsWithLoopLabel) {
  Cluster c(Config(false));
  engine::IterateOptions opt;
  opt.max_iterations = 3;
  opt.label = "spin";
  int64_t calls = 0;
  engine::Iterate(
      &c, int64_t{0},
      [&calls](int64_t s, int64_t) {
        ++calls;
        return s;
      },
      [](int64_t*, int64_t) { return false; }, opt);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInternal) << c.status().ToString();
  EXPECT_NE(c.status().ToString().find(
                "spin did not converge within max_iterations = 3"),
            std::string::npos)
      << c.status().ToString();
  EXPECT_EQ(calls, 3);
}

TEST(IterateTest, ZeroIterationBudgetFailsByDefault) {
  Cluster c(Config(false));
  int64_t calls = 0;
  engine::IterateOptions opt;
  opt.max_iterations = 0;
  engine::Iterate(
      &c, int64_t{0},
      [&calls](int64_t s, int64_t) {
        ++calls;
        return s;
      },
      [](int64_t*, int64_t) { return true; }, opt);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(calls, 0);
}

TEST(IterateTest, ZeroIterationBudgetCanExitQuietly) {
  Cluster c(Config(false));
  engine::IterateOptions opt;
  opt.max_iterations = 0;
  opt.exhausted = [](int64_t) { return Status::OK(); };
  int64_t state = engine::Iterate(
      &c, int64_t{7}, [](int64_t s, int64_t) { return s; },
      [](int64_t*, int64_t) { return true; }, opt);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(state, 7);
  EXPECT_EQ(c.metrics().native_iterations, 0);
}

TEST(IterateTest, ConnectedComponentsZeroBudgetKeepsSelfLabels) {
  // A driver for-loop with max_iterations = 0 skips the loop without
  // failing; the native loop must preserve that edge case.
  Cluster c(Config(false));
  auto edges = datagen::GenerateComponents(2, 5, 2, 37);
  auto bag = Parallelize(&c, edges, 4);
  auto got = engine::Collect(workloads::ConnectedComponents(bag, 0));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(got.size(), 10u);
  for (const auto& [comp, v] : got) EXPECT_EQ(comp, v);
}

TEST(IterateTest, LiftedWhileBudgetFailureMatchesAcrossArms) {
  for (const ClusterConfig& cfg : {PerOp(Config(false)), Config(false)}) {
    Cluster c(cfg);
    auto params = Parallelize(&c, std::vector<int64_t>{1}, 1);
    auto init = core::LiftFlatBag(params);
    core::LiftedWhileScalar(
        init,
        [](const core::LiftingContext&, const core::InnerScalar<int64_t>& s,
           int64_t) {
          auto next = core::UnaryScalarOp(s, [](int64_t x) { return x; });
          auto cond =
              core::UnaryScalarOp(next, [](int64_t) { return true; });
          return std::make_pair(next, cond);
        },
        /*max_iterations=*/10);
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kCancelled)
        << c.status().ToString();
    EXPECT_NE(c.status().ToString().find(
                  "lifted while loop exceeded max_iterations = 10"),
              std::string::npos)
        << c.status().ToString();
  }
}

// ---------- Broadcast residency (invariant hoisting) ----------

TEST(BroadcastResidencyTest, SecondBroadcastOfSamePayloadIsFree) {
  Cluster c(Config(false));
  std::vector<std::pair<int64_t, int64_t>> left_kv, right_kv;
  for (int64_t i = 0; i < 256; ++i) left_kv.emplace_back(i % 16, i);
  for (int64_t i = 0; i < 16; ++i) right_kv.emplace_back(i, i * 10);
  auto left = Parallelize(&c, left_kv, 8);
  auto right = Parallelize(&c, right_kv, 2);

  (void)engine::Collect(engine::BroadcastJoin(left, right));
  ASSERT_TRUE(c.ok());
  const int64_t bytes_once = c.metrics().broadcast_bytes;
  ASSERT_GT(bytes_once, 0);

  // Same payload again: resident, no re-transfer, one reuse counted.
  (void)engine::Collect(engine::BroadcastJoin(left, right));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.metrics().broadcast_bytes, bytes_once);
  EXPECT_EQ(c.metrics().hoisted_broadcast_reuses, 1);
}

TEST(BroadcastResidencyTest, ResetClearsResidency) {
  Cluster c(Config(false));
  auto run_join = [&c]() {
    std::vector<std::pair<int64_t, int64_t>> left_kv, right_kv;
    for (int64_t i = 0; i < 128; ++i) left_kv.emplace_back(i % 8, i);
    for (int64_t i = 0; i < 8; ++i) right_kv.emplace_back(i, i);
    auto left = Parallelize(&c, left_kv, 4);
    auto right = Parallelize(&c, right_kv, 2);
    (void)engine::Collect(engine::BroadcastJoin(left, right));
    return c.metrics().broadcast_bytes;
  };
  const int64_t first = run_join();
  ASSERT_GT(first, 0);
  c.Reset();
  // After Reset the registry is empty: a fresh identical join is charged
  // the same transfer again, not treated as resident.
  EXPECT_EQ(run_join(), first);
  EXPECT_EQ(c.metrics().hoisted_broadcast_reuses, 0);
}

TEST(BroadcastResidencyTest, PageRankReusesLoopInvariantClosure) {
  // The Sec. 5.1 init-weight closure is broadcast by every iteration's
  // MapWithClosure; from iteration 2 on it must be found resident.
  auto run = RunPageRankArm(Config(false));
  ASSERT_TRUE(run.ok);
  EXPECT_GT(run.metrics.hoisted_broadcast_reuses, 0);
}

TEST(BroadcastResidencyTest, HyperparameterKMeansReusesSharedPoints) {
  // Hyperparameter mode: every run clusters the SAME shared point set; the
  // per-iteration cross against it must pay the broadcast only once.
  Cluster c(Config(false));
  auto points = datagen::GeneratePoints(400, 3, 17);
  auto bag = Parallelize(&c, points, 8);
  workloads::KMeansParams params;
  params.k = 3;
  params.max_iterations = 5;
  core::OptimizerOptions opts;
  opts.cross_strategy = core::CrossStrategy::kBroadcastPrimary;
  auto r = workloads::KMeansHyperparameterMatryoshka(&c, bag, 3, params, opts);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_GT(r.metrics.hoisted_broadcast_reuses, 0);
}

// ---------- Traces ----------

std::string CcTraceFor(const ClusterConfig& cfg) {
  Cluster c(cfg);
  obs::TraceRecorder rec;
  rec.SetRunNameHint("iterate-suite");
  c.set_trace(&rec);
  auto edges = datagen::GenerateComponents(2, 6, 2, 37);
  auto bag = Parallelize(&c, edges, 6);
  (void)engine::Collect(workloads::ConnectedComponents(bag, 100));
  EXPECT_TRUE(c.ok());
  return obs::ChromeTraceToString(rec);
}

TEST(IterateTraceTest, ByteIdenticalAcrossChainDepths) {
  EXPECT_EQ(CcTraceFor(PerOp(Config(false))), CcTraceFor(Config(false)));
}

TEST(IterateTraceTest, NativeArmEmitsIterateSpans) {
  const std::string trace = CcTraceFor(Config(false));
  EXPECT_NE(trace.find("connected-components[iter 0]"), std::string::npos);
}

}  // namespace
}  // namespace matryoshka
