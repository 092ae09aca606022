// Fault-injection and recovery tests for the simulated cluster: a default
// (inactive) FaultPlan must reproduce the fault-free cost model bit for bit,
// active plans must be fully deterministic in the seed, faults may only
// stretch the simulated clock — never change computed results — and the
// retry/straggler/speculation/machine-loss policies must behave as
// documented. Also locks down the Reset() round trip and the sticky-status
// early-out of every operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

namespace matryoshka::engine {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.job_launch_overhead_s = 0.1;
  cfg.task_overhead_s = 0.01;
  cfg.per_element_cost_s = 1e-6;
  cfg.memory_object_overhead = 1.0;
  return cfg;
}

std::vector<std::pair<int64_t, int64_t>> PairData(int64_t n, int64_t keys) {
  std::vector<std::pair<int64_t, int64_t>> data;
  data.reserve(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) data.emplace_back(i % keys, 1);
  return data;
}

/// A small program exercising narrow ops, a shuffle, and actions; returns
/// the collected (sorted) result so tests can compare results across fault
/// plans.
std::vector<std::pair<int64_t, int64_t>> RunPipeline(Cluster* c) {
  auto bag = Parallelize(c, PairData(2000, 32), 8);
  auto mapped = MapValues(bag, [](int64_t v) { return v * 2; });
  auto filtered =
      Filter(mapped, [](const std::pair<int64_t, int64_t>& p) {
        return p.first % 7 != 3;
      });
  auto reduced = ReduceByKey(
      filtered, [](int64_t a, int64_t b) { return a + b; }, 8);
  Count(reduced);
  auto out = Collect(reduced);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectMetricsEq(const Metrics& a, const Metrics& b) {
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

FaultPlan NoisyPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.task_failure_prob = 0.1;
  plan.max_task_retries = 8;
  plan.retry_backoff_s = 0.25;
  plan.straggler_fraction = 0.1;
  plan.straggler_slowdown = 3.0;
  plan.speculative_execution = true;
  plan.speculation_fraction = 0.1;
  return plan;
}

// --- Zero-fault identity ---

TEST(FaultsTest, InactivePlanMatchesFaultFreeModelBitForBit) {
  // A plan whose knobs are all at their defaults must not perturb a single
  // metric, even with a different seed: the pre-fault accounting path runs.
  ClusterConfig plain = SmallConfig();
  ClusterConfig with_inactive_plan = SmallConfig();
  with_inactive_plan.faults.seed = 0xdeadbeef;
  Cluster c1(plain), c2(with_inactive_plan);
  auto r1 = RunPipeline(&c1);
  auto r2 = RunPipeline(&c2);
  EXPECT_EQ(r1, r2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ExpectMetricsEq(c1.metrics(), c2.metrics());
  EXPECT_EQ(c2.metrics().task_retries, 0);
  EXPECT_EQ(c2.metrics().failed_tasks, 0);
  EXPECT_EQ(c2.metrics().speculative_launches, 0);
  EXPECT_EQ(c2.metrics().machines_lost, 0);
  EXPECT_DOUBLE_EQ(c2.metrics().recovery_time_s, 0.0);
}

TEST(FaultsTest, ZeroProbabilityKnobsStayInactive) {
  FaultPlan plan;
  plan.seed = 7;
  EXPECT_FALSE(plan.active());
  plan.straggler_fraction = 0.5;  // slowdown still 1.0: no effect
  EXPECT_FALSE(plan.active());
  plan.straggler_slowdown = 2.0;
  EXPECT_TRUE(plan.active());
}

// --- Determinism ---

TEST(FaultsTest, SameSeedIsDeterministicAcrossClusters) {
  ClusterConfig cfg = SmallConfig();
  cfg.faults = NoisyPlan(42);
  Cluster c1(cfg), c2(cfg);
  auto r1 = RunPipeline(&c1);
  auto r2 = RunPipeline(&c2);
  EXPECT_EQ(r1, r2);
  ASSERT_TRUE(c1.ok());
  ExpectMetricsEq(c1.metrics(), c2.metrics());
  // The plan is noisy enough that something must actually have fired.
  EXPECT_GT(c1.metrics().failed_tasks, 0);
  EXPECT_GT(c1.metrics().task_retries, 0);
  EXPECT_GT(c1.metrics().speculative_launches, 0);
}

TEST(FaultsTest, ResetReplaysTheSameFaultsIdentically) {
  ClusterConfig cfg = SmallConfig();
  cfg.faults = NoisyPlan(7);
  cfg.faults.machine_loss_times_s = {0.5};
  Cluster c(cfg);
  RunPipeline(&c);
  ASSERT_TRUE(c.ok());
  const Metrics first = c.metrics();
  EXPECT_EQ(first.machines_lost, 1);
  c.Reset();
  EXPECT_EQ(c.available_machines(), cfg.num_machines);
  RunPipeline(&c);
  ExpectMetricsEq(first, c.metrics());
}

TEST(FaultsTest, DifferentSeedsPerturbTheClockDifferently) {
  ClusterConfig a = SmallConfig(), b = SmallConfig();
  a.faults = NoisyPlan(1);
  b.faults = NoisyPlan(2);
  Cluster ca(a), cb(b);
  auto ra = RunPipeline(&ca);
  auto rb = RunPipeline(&cb);
  EXPECT_EQ(ra, rb);  // results never depend on the seed
  EXPECT_NE(ca.metrics().simulated_time_s, cb.metrics().simulated_time_s);
}

// --- Faults stretch the clock, never the results ---

TEST(FaultsTest, FaultsIncreaseSimulatedTimeButNotResults) {
  ClusterConfig clean = SmallConfig();
  ClusterConfig faulty = SmallConfig();
  faulty.faults.seed = 3;
  faulty.faults.task_failure_prob = 0.3;
  faulty.faults.max_task_retries = 10;
  Cluster cc(clean), cf(faulty);
  auto rc = RunPipeline(&cc);
  auto rf = RunPipeline(&cf);
  ASSERT_TRUE(cf.ok()) << cf.status().ToString();
  EXPECT_EQ(rc, rf);
  EXPECT_GT(cf.metrics().simulated_time_s, cc.metrics().simulated_time_s);
  // Bookkeeping that does not depend on the clock is untouched.
  EXPECT_EQ(cf.metrics().jobs, cc.metrics().jobs);
  EXPECT_EQ(cf.metrics().stages, cc.metrics().stages);
  EXPECT_EQ(cf.metrics().tasks, cc.metrics().tasks);
  EXPECT_EQ(cf.metrics().elements_processed, cc.metrics().elements_processed);
  EXPECT_EQ(cf.metrics().shuffle_bytes, cc.metrics().shuffle_bytes);
}

TEST(FaultsTest, RetriesAreCountedAndChargedAsRecovery) {
  ClusterConfig cfg = SmallConfig();
  cfg.faults.seed = 11;
  cfg.faults.task_failure_prob = 0.5;
  cfg.faults.max_task_retries = 16;
  cfg.faults.retry_backoff_s = 0.125;
  Cluster c(cfg);
  c.AccrueStage(std::vector<double>(64, 0.1));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.metrics().failed_tasks, 0);
  EXPECT_GT(c.metrics().task_retries, 0);
  // Every counted retry follows a counted failure.
  EXPECT_GE(c.metrics().failed_tasks, c.metrics().task_retries);
  EXPECT_GT(c.metrics().recovery_time_s, 0.0);
}

// --- Retry exhaustion: non-recoverable, distinct from OOM ---

TEST(FaultsTest, RetryExhaustionFailsWithTaskFailedNotOom) {
  ClusterConfig cfg = SmallConfig();
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 1.0;  // every attempt fails
  cfg.faults.max_task_retries = 2;
  Cluster c(cfg);
  c.AccrueStage({1.0});
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsTaskFailed());
  EXPECT_FALSE(c.status().IsOutOfMemory());
  EXPECT_EQ(c.metrics().failed_tasks, 3);   // initial attempt + 2 retries
  EXPECT_EQ(c.metrics().task_retries, 2);   // bounded by the budget
}

TEST(FaultsTest, TaskFailureIsStickyLikeOom) {
  ClusterConfig cfg = SmallConfig();
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 1.0;
  cfg.faults.max_task_retries = 0;
  Cluster c(cfg);
  auto bag = Parallelize(&c, PairData(100, 4), 4);
  auto mapped = MapValues(bag, [](int64_t v) { return v + 1; });  // dies here
  EXPECT_FALSE(c.ok());
  const double frozen = c.metrics().simulated_time_s;
  const int64_t jobs = c.metrics().jobs;
  auto more = Map(mapped, [](const std::pair<int64_t, int64_t>& p) {
    return p.second;
  });
  EXPECT_EQ(more.Size(), 0);
  EXPECT_EQ(Count(more), 0);
  EXPECT_EQ(c.metrics().simulated_time_s, frozen);
  EXPECT_EQ(c.metrics().jobs, jobs);
}

// --- Stragglers and speculation ---

TEST(FaultsTest, StragglersStretchTheMakespan) {
  ClusterConfig clean = SmallConfig();
  ClusterConfig slow = SmallConfig();
  slow.faults.seed = 13;
  slow.faults.straggler_fraction = 1.0;  // every task straggles...
  slow.faults.straggler_slowdown = 10.0;  // ...ten times slower
  Cluster cc(clean), cs(slow);
  const std::vector<double> costs(16, 1.0);
  cc.AccrueStage(costs);
  cs.AccrueStage(costs);
  EXPECT_GT(cs.metrics().simulated_time_s,
            9.0 * cc.metrics().simulated_time_s);
  EXPECT_EQ(cs.metrics().failed_tasks, 0);  // slow is not failed
}

TEST(FaultsTest, SpeculationRescuesStragglersAndIsCounted) {
  ClusterConfig without = SmallConfig();
  without.faults.seed = 17;
  without.faults.straggler_fraction = 0.05;
  without.faults.straggler_slowdown = 100.0;
  ClusterConfig with = without;
  with.faults.speculative_execution = true;
  with.faults.speculation_fraction = 0.2;
  Cluster cw(without), cs(with);
  const std::vector<double> costs(64, 1.0);
  cw.AccrueStage(costs);
  cs.AccrueStage(costs);
  // The duplicate of a 100x straggler re-draws its straggler fate and (at
  // this seed) finishes first, cutting the stage makespan.
  EXPECT_LT(cs.metrics().simulated_time_s, cw.metrics().simulated_time_s);
  EXPECT_EQ(cs.metrics().speculative_launches, 12);  // floor(64 * 0.2)
  EXPECT_EQ(cw.metrics().speculative_launches, 0);
}

TEST(FaultsTest, SpeculativeCopyCanRescueAnExhaustedTask) {
  // One task, failure probability tuned so the primary copy exhausts its
  // only attempt but the speculative copy succeeds: the run survives.
  ClusterConfig cfg = SmallConfig();
  cfg.faults.max_task_retries = 0;
  cfg.faults.speculative_execution = true;
  cfg.faults.speculation_fraction = 1.0;
  // Find a seed where the primary fails and the duplicate succeeds; the
  // draws are deterministic, so scanning seeds is stable forever.
  bool found = false;
  for (uint64_t seed = 0; seed < 64 && !found; ++seed) {
    cfg.faults.seed = seed;
    cfg.faults.task_failure_prob = 0.5;
    Cluster probe(cfg);
    probe.AccrueStage({1.0});
    if (probe.ok() && probe.metrics().failed_tasks == 1) {
      EXPECT_EQ(probe.metrics().speculative_launches, 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- Machine loss and lineage ---

TEST(FaultsTest, MachineLossChargesRecoveryAndRemovesTheMachine) {
  ClusterConfig clean = SmallConfig();
  ClusterConfig lossy = SmallConfig();
  lossy.faults.machine_loss_times_s = {0.5};
  Cluster cc(clean), cl(lossy);
  const std::vector<double> costs(8, 1.0);  // makespan > 0.5: loss mid-stage
  cc.AccrueStage(costs);
  cl.AccrueStage(costs);
  EXPECT_EQ(cl.metrics().machines_lost, 1);
  EXPECT_EQ(cl.available_machines(), 3);
  EXPECT_GT(cl.metrics().recovery_time_s, 0.0);
  EXPECT_GT(cl.metrics().simulated_time_s, cc.metrics().simulated_time_s);
  EXPECT_TRUE(cl.ok());  // lineage recompute recovers the lost partitions
}

TEST(FaultsTest, MachineLossReducesSlotsForLaterStages) {
  ClusterConfig cfg = SmallConfig();
  cfg.num_machines = 2;
  cfg.cores_per_machine = 2;
  cfg.faults.machine_loss_times_s = {0.05};
  Cluster lossy(cfg);
  lossy.BeginJob("warmup");  // clock passes 0.05: the event fires idle
  EXPECT_EQ(lossy.metrics().machines_lost, 1);
  EXPECT_DOUBLE_EQ(lossy.metrics().recovery_time_s, 0.0);  // nothing ran
  const double before = lossy.metrics().simulated_time_s;
  lossy.AccrueStage(std::vector<double>(8, 1.0));
  const double lossy_stage = lossy.metrics().simulated_time_s - before;

  ClusterConfig full = SmallConfig();
  full.num_machines = 2;
  full.cores_per_machine = 2;
  Cluster healthy(full);
  healthy.AccrueStage(std::vector<double>(8, 1.0));
  // 8 x 1s tasks: 4 waves on the surviving 2 slots vs 2 waves on 4 slots.
  EXPECT_NEAR(lossy_stage, 2.0 * healthy.metrics().simulated_time_s, 1e-9);
}

TEST(FaultsTest, TheLastMachineNeverDies) {
  ClusterConfig cfg = SmallConfig();
  cfg.num_machines = 2;
  cfg.faults.machine_loss_times_s = {0.0, 0.0, 0.0};
  Cluster c(cfg);
  c.BeginJob("a");
  c.AccrueStage({1.0});
  EXPECT_EQ(c.metrics().machines_lost, 1);
  EXPECT_EQ(c.available_machines(), 1);
  EXPECT_TRUE(c.ok());
}

TEST(FaultsTest, DeeperLineageCostsProportionallyMoreRecovery) {
  ClusterConfig cfg = SmallConfig();
  cfg.faults.machine_loss_times_s = {0.5};
  Cluster shallow(cfg), deep(cfg);
  const std::vector<double> costs(8, 1.0);
  shallow.AccrueStage(costs, /*lineage_depth=*/1);
  deep.AccrueStage(costs, /*lineage_depth=*/5);
  ASSERT_GT(shallow.metrics().recovery_time_s, 0.0);
  EXPECT_NEAR(deep.metrics().recovery_time_s,
              5.0 * shallow.metrics().recovery_time_s, 1e-9);
}

TEST(FaultsTest, LineageDepthGrowsNarrowAndResetsAtShuffles) {
  Cluster c(SmallConfig());
  auto bag = Parallelize(&c, PairData(256, 16), 4);
  EXPECT_EQ(bag.lineage_depth(), 1);
  auto m = MapValues(bag, [](int64_t v) { return v + 1; });
  EXPECT_EQ(m.lineage_depth(), 2);
  auto f = Filter(m, [](const std::pair<int64_t, int64_t>&) { return true; });
  EXPECT_EQ(f.lineage_depth(), 3);
  auto s = Filter(f, [](const std::pair<int64_t, int64_t>&) { return true; });
  EXPECT_EQ(s.lineage_depth(), 4);
  // A shuffle cuts the chain: only work since the last wide op re-runs.
  auto r = ReduceByKey(s, [](int64_t a, int64_t b) { return a + b; }, 4);
  EXPECT_EQ(r.lineage_depth(), 1);
  // The co-partitioned (narrow) reduce keeps growing it.
  auto r2 = ReduceByKey(r, [](int64_t a, int64_t b) { return a + b; }, 4);
  EXPECT_EQ(r2.lineage_depth(), 2);
  auto u = Union(f, s);
  EXPECT_EQ(u.lineage_depth(), 4);  // metadata-only: max of the inputs
}

// --- The paper-spirit claim: many small jobs degrade faster ---

TEST(FaultsTest, ManyJobStrategiesDegradeFasterUnderFaults) {
  // Same total single-core work, two shapes: the inner-parallel workaround
  // launches many jobs of tiny tasks, Matryoshka a few jobs of chunky
  // tasks. Retry backoff is charged per failed task, so the many-task shape
  // pays disproportionally once failures arrive.
  FaultPlan plan;
  plan.seed = 2021;
  plan.task_failure_prob = 0.02;
  plan.max_task_retries = 6;
  plan.retry_backoff_s = 0.5;

  auto run_shape = [](const ClusterConfig& cfg, int jobs, int tasks_per_job,
                      double cost_per_task) {
    Cluster c(cfg);
    for (int j = 0; j < jobs; ++j) {
      c.BeginJob("stage");
      c.AccrueStage(std::vector<double>(
          static_cast<std::size_t>(tasks_per_job), cost_per_task));
    }
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.metrics().simulated_time_s;
  };

  ClusterConfig clean = SmallConfig();
  ClusterConfig faulty = SmallConfig();
  faulty.faults = plan;
  // 200 jobs x 32 tasks x 10ms  ==  2 jobs x 32 tasks x 1s  (64s total).
  const double inner_clean = run_shape(clean, 200, 32, 0.01);
  const double inner_faulty = run_shape(faulty, 200, 32, 0.01);
  const double matry_clean = run_shape(clean, 2, 32, 1.0);
  const double matry_faulty = run_shape(faulty, 2, 32, 1.0);
  const double inner_degradation = inner_faulty / inner_clean;
  const double matry_degradation = matry_faulty / matry_clean;
  EXPECT_GT(inner_degradation, 1.0);
  EXPECT_GT(matry_degradation, 1.0);
  EXPECT_GT(inner_degradation, 2.0 * matry_degradation);
}

// --- Reset round trip (satellite) ---

TEST(FaultsTest, ResetRoundTripZeroesEveryMetricAndClearsStatus) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 4096.0;
  cfg.faults = NoisyPlan(23);
  cfg.faults.machine_loss_times_s = {0.01};
  Cluster c(cfg);
  // Accrue a bit of everything: jobs, stages, shuffle, broadcast, spill,
  // memory peaks, faults — then blow up with a giant group.
  auto bag = Parallelize(&c, PairData(512, 1), 4);
  c.AccrueBroadcast(128.0);
  c.SpillFactor(1e9);
  GroupByKey(bag, 4);  // one giant group: OOM
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsOutOfMemory());

  c.Reset();
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.status().ok());
  EXPECT_EQ(c.available_machines(), cfg.num_machines);
  ExpectMetricsEq(c.metrics(), Metrics());
  EXPECT_DOUBLE_EQ(c.metrics().simulated_time_s, 0.0);
  EXPECT_EQ(c.metrics().spill_events, 0);
  EXPECT_DOUBLE_EQ(c.metrics().spilled_bytes, 0.0);
  EXPECT_DOUBLE_EQ(c.metrics().peak_task_bytes, 0.0);
  EXPECT_DOUBLE_EQ(c.metrics().peak_machine_bytes, 0.0);
}

TEST(FaultsTest, ResetReArmsMachineLossUnderActiveRecoveryPolicy) {
  // Reset must re-arm machine-loss events and replay runs bit-identically
  // with the recovery features (auto-checkpoint + degraded re-planning +
  // retries) switched on, not just under the default policy.
  ClusterConfig cfg = SmallConfig();
  cfg.faults = NoisyPlan(7);
  cfg.faults.machine_loss_times_s = {0.5};
  cfg.recovery.max_driver_retries = 4;
  cfg.recovery.auto_checkpoint = true;
  cfg.recovery.min_checkpoint_lineage = 2;
  cfg.recovery.checkpoint_bytes_per_s = 1e12;  // checkpoints almost free
  cfg.recovery.degraded_replanning = true;
  Cluster c(cfg);
  auto r1 = RunPipeline(&c);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Metrics first = c.metrics();
  EXPECT_EQ(first.machines_lost, 1);
  c.Reset();
  EXPECT_EQ(c.available_machines(), cfg.num_machines);
  EXPECT_EQ(c.metrics().checkpoints_written, 0);
  EXPECT_EQ(c.metrics().driver_retries, 0);
  auto r2 = RunPipeline(&c);
  EXPECT_EQ(r1, r2);
  ExpectMetricsEq(first, c.metrics());
}

// --- Sticky-status early-out of every operator (satellite) ---

TEST(FaultsTest, EveryOperatorEarlyOutsEmptyAfterFailWithoutAdvancingClock) {
  Cluster c(SmallConfig());
  auto pairs = Parallelize(&c, PairData(200, 8), 4);
  auto ints = Keys(pairs);
  c.Fail(Status::Internal("injected"));
  ASSERT_FALSE(c.ok());
  const double frozen = c.metrics().simulated_time_s;
  const int64_t stages = c.metrics().stages;
  const int64_t jobs = c.metrics().jobs;

  // ops.h
  EXPECT_EQ(Map(ints, [](int64_t x) { return x; }).Size(), 0);
  EXPECT_EQ(Filter(ints, [](int64_t) { return true; }).Size(), 0);
  EXPECT_EQ(FlatMap(ints, [](int64_t x) {
              return std::vector<int64_t>{x};
            }).Size(),
            0);
  EXPECT_EQ(Keys(pairs).Size(), 0);
  EXPECT_EQ(Values(pairs).Size(), 0);
  EXPECT_EQ(MapValues(pairs, [](int64_t v) { return v; }).Size(), 0);
  EXPECT_EQ(FlatMapValues(pairs, [](int64_t v) {
              return std::vector<int64_t>{v};
            }).Size(),
            0);
  EXPECT_EQ(Union(ints, ints).Size(), 0);
  EXPECT_EQ(ZipWithUniqueId(ints).Size(), 0);
  EXPECT_EQ(Count(ints), 0);
  EXPECT_FALSE(NotEmpty(ints));
  EXPECT_TRUE(Collect(ints).empty());

  // shuffle.h
  EXPECT_EQ(Repartition(ints, 4).Size(), 0);
  EXPECT_EQ(PartitionByKey(pairs, 4).Size(), 0);
  EXPECT_EQ(
      ReduceByKey(pairs, [](int64_t a, int64_t b) { return a + b; }, 4).Size(),
      0);
  EXPECT_EQ(GroupByKey(pairs, 4).Size(), 0);
  EXPECT_EQ(Distinct(ints, 4).Size(), 0);

  // join.h
  EXPECT_EQ(RepartitionJoin(pairs, pairs, 4).Size(), 0);
  EXPECT_EQ(BroadcastJoin(pairs, pairs).Size(), 0);
  EXPECT_EQ(LeftOuterJoin(pairs, pairs, 4).Size(), 0);

  // No operator advanced the simulated clock or launched anything.
  EXPECT_EQ(c.metrics().simulated_time_s, frozen);
  EXPECT_EQ(c.metrics().stages, stages);
  EXPECT_EQ(c.metrics().jobs, jobs);
  EXPECT_TRUE(c.status().message() == "injected");
}

}  // namespace
}  // namespace matryoshka::engine
