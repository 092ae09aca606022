// Tests for the simulated-cluster cost model: job/stage/task accounting,
// makespan scheduling (including skew effects), shuffle and broadcast
// charges, memory checks, and spill behaviour.

#include <gtest/gtest.h>

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
  cfg.num_machines = 2;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.job_launch_overhead_s = 1.0;
  cfg.task_overhead_s = 0.01;
  cfg.per_element_cost_s = 1e-6;
  cfg.memory_object_overhead = 1.0;  // tests reason in raw bytes
  return cfg;
}

TEST(CostModelTest, BeginJobChargesLaunchOverhead) {
  Cluster c(SmallConfig());
  c.BeginJob("a");
  c.BeginJob("b");
  EXPECT_EQ(c.metrics().jobs, 2);
  EXPECT_DOUBLE_EQ(c.metrics().simulated_time_s, 2.0);
}

TEST(CostModelTest, StageMakespanSingleWave) {
  Cluster c(SmallConfig());
  // 4 slots, 4 tasks of 1s each -> makespan = task_overhead + 1s.
  c.AccrueStage({1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(c.metrics().simulated_time_s, 1.01, 1e-9);
  EXPECT_EQ(c.metrics().stages, 1);
  EXPECT_EQ(c.metrics().tasks, 4);
}

TEST(CostModelTest, StageMakespanTwoWaves) {
  Cluster c(SmallConfig());
  // 8 tasks of 1s on 4 slots -> 2 waves.
  c.AccrueStage(std::vector<double>(8, 1.0));
  EXPECT_NEAR(c.metrics().simulated_time_s, 2.02, 1e-9);
}

TEST(CostModelTest, SkewedTaskDominatesMakespan) {
  Cluster c(SmallConfig());
  // One 10s task among tiny ones: makespan ~ 10s even with free slots.
  std::vector<double> costs(4, 0.001);
  costs.push_back(10.0);
  c.AccrueStage(costs);
  EXPECT_GE(c.metrics().simulated_time_s, 10.0);
  EXPECT_LT(c.metrics().simulated_time_s, 10.1);
}

TEST(CostModelTest, FewerTasksThanSlotsGetNoSpeedupBeyondTaskCount) {
  // This is the outer-parallel starvation effect: 1 task on a 4-slot
  // cluster takes the full task time.
  Cluster c(SmallConfig());
  c.AccrueStage({8.0});
  EXPECT_NEAR(c.metrics().simulated_time_s, 8.01, 1e-9);
}

TEST(CostModelTest, UniformStageSplitsWork) {
  Cluster c(SmallConfig());
  // 4s of work in 4 equal tasks over 4 slots.
  c.AccrueStage(std::vector<double>(4, c.ComputeCost(4'000'000, 1.0) / 4));
  EXPECT_NEAR(c.metrics().simulated_time_s, 1.01, 1e-9);
}

TEST(CostModelTest, ComputeCostIsLinearInElementsAndWeight) {
  Cluster c(SmallConfig());
  EXPECT_DOUBLE_EQ(c.ComputeCost(100, 2.0), 100 * 1e-6 * 2.0);
  EXPECT_DOUBLE_EQ(c.ComputeCost(0, 5.0), 0.0);
}

TEST(CostModelTest, BagScaleAmplifiesComputeCharges) {
  // The same synthetic data at scale 1000 must cost ~1000x the stage time.
  Cluster c1(SmallConfig()), c2(SmallConfig());
  std::vector<int64_t> data(1000, 1);
  auto small = Parallelize(&c1, data, 4, /*scale=*/1.0);
  auto big = Parallelize(&c2, data, 4, /*scale=*/1000.0);
  Map(small, [](int64_t x) { return x + 1; });
  Map(big, [](int64_t x) { return x + 1; });
  // Subtract the constant task overhead before comparing.
  const double overhead = 4 * 0.01 / 4;  // 4 tasks on 4 slots, one wave
  const double t1 = c1.metrics().simulated_time_s - overhead;
  const double t2 = c2.metrics().simulated_time_s - overhead;
  EXPECT_NEAR(t2 / t1, 1000.0, 1.0);
}

TEST(CostModelTest, ScalePropagatesThroughElementwiseOps) {
  Cluster c(SmallConfig());
  auto bag = Parallelize(&c, std::vector<int64_t>{1, 2, 3}, 2, 500.0);
  auto mapped = Map(bag, [](int64_t x) { return x; });
  EXPECT_DOUBLE_EQ(mapped.scale(), 500.0);
  auto filtered = Filter(mapped, [](int64_t) { return true; });
  EXPECT_DOUBLE_EQ(filtered.scale(), 500.0);
}

TEST(CostModelTest, ReduceByKeyResultScaleOverride) {
  Cluster c(SmallConfig());
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 100; ++i) data.emplace_back(i % 4, 1);
  auto bag = Parallelize(&c, data, 4, /*scale=*/1000.0);
  auto keep = ReduceByKey(bag, [](int64_t a, int64_t b) { return a + b; }, 4);
  EXPECT_DOUBLE_EQ(keep.scale(), 1000.0);
  auto fixed = ReduceByKey(
      bag, [](int64_t a, int64_t b) { return a + b; }, 4, 1.0,
      /*result_scale=*/1.0);
  EXPECT_DOUBLE_EQ(fixed.scale(), 1.0);
}

TEST(CostModelTest, ShuffleChargesCrossingBytesOnly) {
  ClusterConfig cfg = SmallConfig();
  cfg.network_bytes_per_s = 100.0;
  Cluster c(cfg);
  c.AccrueShuffle(400.0);
  // Half the data crosses machines (2 machines), each machine moves its
  // share in parallel: 400 * 0.5 / 2 machines / 100 B/s = 1s.
  EXPECT_NEAR(c.metrics().simulated_time_s, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(c.metrics().shuffle_bytes, 400.0);
}

TEST(CostModelTest, SingleMachineShuffleIsFree) {
  ClusterConfig cfg = SmallConfig();
  cfg.num_machines = 1;
  cfg.network_bytes_per_s = 1.0;
  Cluster c(cfg);
  c.AccrueShuffle(1e9);
  EXPECT_DOUBLE_EQ(c.metrics().simulated_time_s, 0.0);
}

TEST(CostModelTest, BroadcastWithinMemorySucceeds) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 1000.0;
  cfg.network_bytes_per_s = 100.0;
  Cluster c(cfg);
  c.AccrueBroadcast(500.0);
  EXPECT_TRUE(c.ok());
  EXPECT_NEAR(c.metrics().simulated_time_s, 10.0, 1e-9);  // 2 * 500/100
}

TEST(CostModelTest, BroadcastBeyondMemoryFailsOom) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 1000.0;
  Cluster c(cfg);
  c.AccrueBroadcast(2000.0);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsOutOfMemory());
}

TEST(CostModelTest, BagScaleAmplifiesMemoryPressure) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 1000.0;
  Cluster c(cfg);
  // 10 x 8-byte elements at scale 100 = 8000 real bytes > 1000: the
  // broadcast side of a join blows the per-machine budget.
  std::vector<std::pair<int64_t, int64_t>> small{{1, 1}};
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 10; ++i) data.emplace_back(i, i);
  auto left = Parallelize(&c, small, 1, 1.0);
  auto right = Parallelize(&c, data, 2, 100.0);
  BroadcastJoin(left, right);
  EXPECT_TRUE(c.status().IsOutOfMemory());
}

TEST(CostModelTest, TaskMemoryCheck) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 1000.0;  // budget per task = 500
  Cluster c(cfg);
  c.CheckTaskMemory(400.0, "group");
  EXPECT_TRUE(c.ok());
  c.CheckTaskMemory(600.0, "group");
  EXPECT_TRUE(c.status().IsOutOfMemory());
  EXPECT_DOUBLE_EQ(c.metrics().peak_task_bytes, 600.0);
}

TEST(CostModelTest, SpillFactorBelowBudgetIsOne) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 1000.0;
  cfg.execution_memory_fraction = 0.5;  // budget 500
  Cluster c(cfg);
  EXPECT_DOUBLE_EQ(c.SpillFactor(400.0), 1.0);
  EXPECT_EQ(c.metrics().spill_events, 0);
}

TEST(CostModelTest, SpillFactorGrowsWithExcess) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 1000.0;
  cfg.execution_memory_fraction = 0.5;
  cfg.spill_penalty = 4.0;
  Cluster c(cfg);
  double f1 = c.SpillFactor(1000.0);  // half the data spills
  EXPECT_NEAR(f1, 1.0 + 0.5 * 3.0, 1e-9);
  EXPECT_EQ(c.metrics().spill_events, 1);
  double f2 = c.SpillFactor(1e9);  // nearly everything spills
  EXPECT_LT(f2, 4.0 + 1e-9);
  EXPECT_GT(f2, 3.9);
}

TEST(CostModelTest, ResetClearsStateAndMetrics) {
  Cluster c(SmallConfig());
  c.BeginJob("x");
  c.Fail(Status::OutOfMemory("boom"));
  c.Reset();
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.metrics().jobs, 0);
  EXPECT_DOUBLE_EQ(c.metrics().simulated_time_s, 0.0);
}

TEST(CostModelTest, GroupByKeyOomsOnGiantGroup) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 4096.0;  // task budget = 2048 bytes
  Cluster c(cfg);
  // One key owning 1000 elements of 16 bytes = 16000 bytes > 2048.
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 1000; ++i) data.emplace_back(0, i);
  auto bag = Parallelize(&c, data, 4);
  GroupByKey(bag, 4);
  EXPECT_TRUE(c.status().IsOutOfMemory());
}

TEST(CostModelTest, GroupByKeySurvivesSmallGroups) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 1 << 20;
  Cluster c(cfg);
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 1000; ++i) data.emplace_back(i % 100, i);
  auto g = GroupByKey(Parallelize(&c, data, 4), 4);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(g.Size(), 100);
}

TEST(CostModelTest, GroupExpansionTriggersOom) {
  ClusterConfig cfg = SmallConfig();
  cfg.memory_per_machine_bytes = 4096.0;  // budget 2048
  Cluster c(cfg);
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 100; ++i) data.emplace_back(0, i);  // ~1600 bytes
  auto bag = Parallelize(&c, data, 4);
  GroupByKey(bag, 4, /*group_expansion=*/1.0);
  EXPECT_TRUE(c.ok());
  GroupByKey(bag, 4, /*group_expansion=*/4.0);
  EXPECT_TRUE(c.status().IsOutOfMemory());
}

TEST(CostModelTest, ActionsCountJobsTransformationsDoNot) {
  Cluster c(SmallConfig());
  auto bag = Parallelize(&c, std::vector<int64_t>{1, 2, 3}, 2);
  auto m = Map(bag, [](int64_t x) { return x + 1; });
  auto f = Filter(m, [](int64_t x) { return x > 1; });
  EXPECT_EQ(c.metrics().jobs, 0);
  Count(f);
  EXPECT_EQ(c.metrics().jobs, 1);
  Collect(f);
  EXPECT_EQ(c.metrics().jobs, 2);
}

TEST(CostModelTest, BroadcastJoinChargesBroadcastNotShuffle) {
  Cluster c(SmallConfig());
  std::vector<std::pair<int64_t, int64_t>> l, r;
  for (int64_t i = 0; i < 100; ++i) l.emplace_back(i % 5, i);
  for (int64_t i = 0; i < 5; ++i) r.emplace_back(i, i);
  auto lb = Parallelize(&c, l, 4);
  auto rb = Parallelize(&c, r, 2);
  BroadcastJoin(lb, rb);
  EXPECT_GT(c.metrics().broadcast_bytes, 0.0);
  EXPECT_DOUBLE_EQ(c.metrics().shuffle_bytes, 0.0);
  Cluster c2(SmallConfig());
  auto lb2 = Parallelize(&c2, l, 4);
  auto rb2 = Parallelize(&c2, r, 2);
  RepartitionJoin(lb2, rb2, 4);
  EXPECT_GT(c2.metrics().shuffle_bytes, 0.0);
  EXPECT_DOUBLE_EQ(c2.metrics().broadcast_bytes, 0.0);
}

TEST(CostModelTest, MoreMachinesShortenStages) {
  ClusterConfig small = SmallConfig();
  ClusterConfig big = SmallConfig();
  big.num_machines = 8;
  Cluster cs(small), cb(big);
  std::vector<double> tasks(32, 1.0);
  cs.AccrueStage(tasks);
  cb.AccrueStage(tasks);
  EXPECT_GT(cs.metrics().simulated_time_s,
            3.0 * cb.metrics().simulated_time_s);
}

}  // namespace
}  // namespace matryoshka::engine
