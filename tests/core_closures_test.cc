// Tests for closure handling (Sec. 5) and the optimizer's physical choices
// (Sec. 8): MapWithClosure, HalfLiftedMapWithClosure, HalfLiftedJoin, join
// strategy and partition-count selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/matryoshka.h"

namespace matryoshka::core {
namespace {

using engine::Bag;
using engine::Cluster;
using engine::ClusterConfig;
using engine::Parallelize;

ClusterConfig TestConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

class ClosuresTest : public ::testing::Test {
 protected:
  ClosuresTest() : cluster_(TestConfig()) {}
  Cluster cluster_;
};

TEST_F(ClosuresTest, MapWithClosurePairsEachElementWithItsTagsClosure) {
  // Per group: initWeight = 1 / count(group); every element of the group is
  // mapped with ITS group's weight (the PageRank init pattern of Sec. 5.1).
  std::vector<std::pair<int64_t, int64_t>> data{
      {1, 10}, {1, 11}, {2, 20}, {2, 21}, {2, 22}};
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, data, 3));
  auto counts = LiftedCount(nested.values());
  auto init_weight = UnaryScalarOp(
      counts, [](int64_t c) { return 1.0 / static_cast<double>(c); });
  auto weighted = MapWithClosure(
      nested.values(), init_weight,
      [](int64_t x, double w) { return std::pair<int64_t, double>(x, w); });
  auto v = weighted.Flatten().ToVector();
  ASSERT_EQ(v.size(), 5u);
  for (auto& [x, w] : v) {
    if (x / 10 == 1) {
      EXPECT_DOUBLE_EQ(w, 0.5);
    } else {
      EXPECT_DOUBLE_EQ(w, 1.0 / 3.0);
    }
  }
}

TEST_F(ClosuresTest, MapWithClosureBroadcastAndRepartitionAgree) {
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 200; ++i) data.emplace_back(i % 8, i);
  auto run = [&](JoinStrategy strategy) {
    Cluster c(TestConfig());
    OptimizerOptions opts;
    opts.join_strategy = strategy;
    auto nested =
        GroupByKeyIntoNestedBag(Parallelize(&c, data, 5), opts);
    auto counts = LiftedCount(nested.values());
    auto tagged = MapWithClosure(
        nested.values(), counts,
        [](int64_t x, int64_t cnt) { return x * 1000 + cnt; });
    auto v = tagged.Flatten().ToVector();
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(run(JoinStrategy::kBroadcast), run(JoinStrategy::kRepartition));
}

TEST_F(ClosuresTest, HalfLiftedMapWithClosureCrossesPrimaryWithEveryTag) {
  // K-means pattern: shared points (outside) x per-run means (inside).
  auto points = Parallelize(&cluster_, std::vector<int64_t>{1, 2, 3}, 2);
  auto runs = Parallelize(&cluster_, std::vector<int64_t>{10, 20}, 2);
  auto lifted_runs = LiftFlatBag(runs);
  auto crossed = HalfLiftedMapWithClosure(
      points, lifted_runs, [](int64_t p, int64_t r) { return p + r; });
  auto v = crossed.Flatten().ToVector();
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int64_t>{11, 12, 13, 21, 22, 23}));
  // Per tag, all 3 points appear.
  auto counts = LiftedCount(crossed);
  for (auto& [t, c] : counts.repr().ToVector()) EXPECT_EQ(c, 3);
}

TEST_F(ClosuresTest, HalfLiftedStrategiesProduceIdenticalResults) {
  auto run = [&](CrossStrategy strategy) {
    Cluster c(TestConfig());
    OptimizerOptions opts;
    opts.cross_strategy = strategy;
    auto points = Parallelize(&c, std::vector<int64_t>{1, 2, 3, 4}, 3);
    auto runs = Parallelize(&c, std::vector<int64_t>{100, 200, 300}, 2);
    auto lifted = LiftFlatBag(runs, opts);
    auto crossed = HalfLiftedMapWithClosure(
        points, lifted, [](int64_t p, int64_t r) { return p * r; });
    auto v = crossed.Flatten().ToVector();
    std::sort(v.begin(), v.end());
    return v;
  };
  auto a = run(CrossStrategy::kBroadcastScalar);
  auto b = run(CrossStrategy::kBroadcastPrimary);
  auto c = run(CrossStrategy::kAuto);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.size(), 12u);
}

TEST_F(ClosuresTest, HalfLiftedBroadcastPrimaryOomsWhenPrimaryHuge) {
  ClusterConfig cfg = TestConfig();
  cfg.data_scale = 1e6;  // each synthetic element stands for 1e6 real ones
  cfg.memory_per_machine_bytes = 1e9;
  Cluster c(cfg);
  std::vector<int64_t> big(100000, 1);
  auto points = Parallelize(&c, big, 8);  // ~800 KB * 1e6 = 800 GB scaled
  OptimizerOptions opts;
  opts.cross_strategy = CrossStrategy::kBroadcastPrimary;
  auto runs = LiftFlatBag(Parallelize(&c, std::vector<int64_t>{1}, 1), opts);
  HalfLiftedMapWithClosure(points, runs,
                           [](int64_t p, int64_t r) { return p + r; });
  EXPECT_TRUE(c.status().IsOutOfMemory());
}

TEST_F(ClosuresTest, HalfLiftedAutoAvoidsTheOom) {
  ClusterConfig cfg = TestConfig();
  cfg.data_scale = 1e6;
  cfg.memory_per_machine_bytes = 1e9;
  Cluster c(cfg);
  std::vector<int64_t> big(100000, 1);
  auto points = Parallelize(&c, big, 8);
  auto runs = LiftFlatBag(Parallelize(&c, std::vector<int64_t>{1}, 1));
  auto crossed = HalfLiftedMapWithClosure(
      points, runs, [](int64_t p, int64_t r) { return p + r; });
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(crossed.repr().Size(), 100000);
}

TEST_F(ClosuresTest, HalfLiftedThrowingUdfFailsTheClusterTyped) {
  // Both cross strategies run the UDF under the engine's exception guard: a
  // throwing UDF fails the program with kInternal and nothing escapes.
  for (CrossStrategy strategy :
       {CrossStrategy::kBroadcastScalar, CrossStrategy::kBroadcastPrimary}) {
    ClusterConfig cfg = TestConfig();
    cfg.execute_parallel = true;
    cfg.pool_threads = 2;
    Cluster c(cfg);
    OptimizerOptions opts;
    opts.cross_strategy = strategy;
    auto points = Parallelize(&c, std::vector<int64_t>{1, 2, 3, 4}, 3);
    auto lifted = LiftFlatBag(
        Parallelize(&c, std::vector<int64_t>{100, 200}, 2), opts);
    EXPECT_NO_THROW(HalfLiftedMapWithClosure(
        points, lifted, [](int64_t p, int64_t r) -> int64_t {
          if (p == 3) throw std::runtime_error("closure udf exploded");
          return p * r;
        }));
    EXPECT_EQ(c.status().code(), StatusCode::kInternal)
        << c.status().ToString();
    EXPECT_NE(c.status().message().find("closure udf exploded"),
              std::string::npos);
  }
}

TEST_F(ClosuresTest, HalfLiftedJoinMatchesOnKeyAcrossLiftBoundary) {
  // InnerBag of (vertex, rank) inside the UDF joined with a static plain
  // bag of (vertex, degree) from outside.
  std::vector<std::pair<int64_t, std::pair<int64_t, int64_t>>> inner{
      {1, {100, 5}}, {1, {101, 6}}, {2, {100, 7}}};
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, inner, 2));
  std::vector<std::pair<int64_t, int64_t>> degrees{{100, 3}, {101, 4}};
  auto deg_bag = Parallelize(&cluster_, degrees, 2);
  auto joined = HalfLiftedJoin(nested.values(), deg_bag);
  auto v = joined.Flatten().ToVector();
  std::sort(v.begin(), v.end());
  // Every (vertex, rank) matched its degree; group tags kept both groups'
  // vertex-100 entries separate.
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0],
            (std::pair<int64_t, std::pair<int64_t, int64_t>>{100, {5, 3}}));
  EXPECT_EQ(v[1],
            (std::pair<int64_t, std::pair<int64_t, int64_t>>{100, {7, 3}}));
  EXPECT_EQ(v[2],
            (std::pair<int64_t, std::pair<int64_t, int64_t>>{101, {6, 4}}));
}

// --- Optimizer decision unit tests (Sec. 8) ---

TEST(OptimizerTest, ScalarPartitionsTracksTagCount) {
  ClusterConfig cfg = TestConfig();  // default_parallelism = 8
  Optimizer opt(&cfg, {});
  EXPECT_EQ(opt.ScalarPartitions(1), 1);
  EXPECT_EQ(opt.ScalarPartitions(5), 5);
  EXPECT_EQ(opt.ScalarPartitions(100), 8);
  EXPECT_EQ(opt.ScalarPartitions(0), 1);
}

TEST(OptimizerTest, ScalarPartitionsDisabledUsesDefault) {
  ClusterConfig cfg = TestConfig();
  OptimizerOptions o;
  o.tune_partitions = false;
  Optimizer opt(&cfg, o);
  EXPECT_EQ(opt.ScalarPartitions(1), 8);
}

TEST(OptimizerTest, JoinChoiceSwitchesAtCoreCount) {
  ClusterConfig cfg = TestConfig();  // 16 cores
  Optimizer opt(&cfg, {});
  EXPECT_EQ(opt.ChooseJoin(1), JoinStrategy::kBroadcast);
  EXPECT_EQ(opt.ChooseJoin(15), JoinStrategy::kBroadcast);
  EXPECT_EQ(opt.ChooseJoin(16), JoinStrategy::kRepartition);
  EXPECT_EQ(opt.ChooseJoin(10000), JoinStrategy::kRepartition);
}

TEST(OptimizerTest, ForcedJoinStrategyWins) {
  ClusterConfig cfg = TestConfig();
  OptimizerOptions o;
  o.join_strategy = JoinStrategy::kBroadcast;
  Optimizer opt(&cfg, o);
  EXPECT_EQ(opt.ChooseJoin(1 << 20), JoinStrategy::kBroadcast);
}

TEST(OptimizerTest, CrossChoicePrefersSinglePartitionScalar) {
  ClusterConfig cfg = TestConfig();
  Optimizer opt(&cfg, {});
  EXPECT_EQ(opt.ChooseCross(1, 1e9, 10.0), CrossStrategy::kBroadcastScalar);
}

TEST(OptimizerTest, CrossChoiceComparesSizesOtherwise) {
  ClusterConfig cfg = TestConfig();
  Optimizer opt(&cfg, {});
  EXPECT_EQ(opt.ChooseCross(4, 100.0, 1e9), CrossStrategy::kBroadcastScalar);
  EXPECT_EQ(opt.ChooseCross(4, 1e9, 100.0), CrossStrategy::kBroadcastPrimary);
}

TEST(OptimizerTest, ForcedCrossStrategyWins) {
  ClusterConfig cfg = TestConfig();
  OptimizerOptions o;
  o.cross_strategy = CrossStrategy::kBroadcastPrimary;
  Optimizer opt(&cfg, o);
  EXPECT_EQ(opt.ChooseCross(1, 1.0, 1e9), CrossStrategy::kBroadcastPrimary);
}

TEST_F(ClosuresTest, BroadcastJoinAvoidsShuffleInTagJoin) {
  // With few tags the optimizer must pick broadcast: no shuffle bytes from
  // the tag join itself on the big side.
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 500; ++i) data.emplace_back(i % 4, i);
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, data, 4));
  auto counts = LiftedCount(nested.values());
  const double shuffle_before = cluster_.metrics().shuffle_bytes;
  MapWithClosure(nested.values(), counts,
                 [](int64_t x, int64_t) { return x; });
  // Only broadcast traffic should have been added (4 tags << 16 cores).
  EXPECT_DOUBLE_EQ(cluster_.metrics().shuffle_bytes, shuffle_before);
  EXPECT_GT(cluster_.metrics().broadcast_bytes, 0.0);
}

}  // namespace
}  // namespace matryoshka::core
