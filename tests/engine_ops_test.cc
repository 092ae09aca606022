// Correctness tests for the flat dataflow engine's operators. Bags are
// unordered, so results are compared as sorted vectors / multisets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

namespace matryoshka::engine {
namespace {

ClusterConfig TestConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

class EngineOpsTest : public ::testing::Test {
 protected:
  EngineOpsTest() : cluster_(TestConfig()) {}
  Cluster cluster_;
};

TEST_F(EngineOpsTest, ParallelizeRoundTrips) {
  auto bag = Parallelize(&cluster_, Iota(100), 7);
  EXPECT_EQ(bag.num_partitions(), 7);
  EXPECT_EQ(bag.Size(), 100);
  EXPECT_EQ(Sorted(bag.ToVector()), Iota(100));
}

TEST_F(EngineOpsTest, ParallelizeDefaultParallelism) {
  auto bag = Parallelize(&cluster_, Iota(100));
  EXPECT_EQ(bag.num_partitions(), 8);
}

TEST_F(EngineOpsTest, ParallelizeEmptyInput) {
  auto bag = Parallelize(&cluster_, std::vector<int64_t>{}, 4);
  EXPECT_EQ(bag.Size(), 0);
  EXPECT_EQ(bag.num_partitions(), 4);
}

TEST_F(EngineOpsTest, MapTransformsEveryElement) {
  auto bag = Parallelize(&cluster_, Iota(50), 5);
  auto doubled = Map(bag, [](int64_t x) { return 2 * x; });
  auto v = Sorted(doubled.ToVector());
  ASSERT_EQ(v.size(), 50u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], 2 * static_cast<int64_t>(i));
  }
}

TEST_F(EngineOpsTest, MapChangesElementType) {
  auto bag = Parallelize(&cluster_, Iota(10), 3);
  auto strs = Map(bag, [](int64_t x) { return std::to_string(x); });
  EXPECT_EQ(strs.Size(), 10);
}

TEST_F(EngineOpsTest, FilterKeepsMatching) {
  auto bag = Parallelize(&cluster_, Iota(100), 5);
  auto evens = Filter(bag, [](int64_t x) { return x % 2 == 0; });
  auto v = Sorted(evens.ToVector());
  ASSERT_EQ(v.size(), 50u);
  for (int64_t x : v) EXPECT_EQ(x % 2, 0);
}

TEST_F(EngineOpsTest, FlatMapExpands) {
  auto bag = Parallelize(&cluster_, Iota(10), 2);
  auto out = FlatMap(bag, [](int64_t x) {
    return std::vector<int64_t>{x, x + 100};
  });
  EXPECT_EQ(out.Size(), 20);
  auto v = Sorted(out.ToVector());
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 109);
}

TEST_F(EngineOpsTest, FlatMapCanDropElements) {
  auto bag = Parallelize(&cluster_, Iota(10), 2);
  auto out = FlatMap(bag, [](int64_t x) {
    return x % 2 == 0 ? std::vector<int64_t>{x} : std::vector<int64_t>{};
  });
  EXPECT_EQ(out.Size(), 5);
}

TEST_F(EngineOpsTest, UnionConcatenates) {
  auto a = Parallelize(&cluster_, Iota(5), 2);
  auto b = Parallelize(&cluster_, Iota(5), 3);
  auto u = Union(a, b);
  EXPECT_EQ(u.Size(), 10);
  EXPECT_EQ(u.num_partitions(), 5);
}

TEST_F(EngineOpsTest, ZipWithUniqueIdAssignsDistinctIds) {
  auto bag = Parallelize(&cluster_, Iota(100), 7);
  auto zipped = ZipWithUniqueId(bag);
  auto v = zipped.ToVector();
  std::vector<uint64_t> ids;
  ids.reserve(v.size());
  for (const auto& [id, x] : v) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST_F(EngineOpsTest, KeysValuesMapValues) {
  std::vector<std::pair<int64_t, int64_t>> data{{1, 10}, {2, 20}, {3, 30}};
  auto bag = Parallelize(&cluster_, data, 2);
  EXPECT_EQ(Sorted(Keys(bag).ToVector()), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Sorted(Values(bag).ToVector()),
            (std::vector<int64_t>{10, 20, 30}));
  auto mv = MapValues(bag, [](int64_t v) { return v + 1; });
  auto v = Sorted(mv.ToVector());
  EXPECT_EQ(v[0], (std::pair<int64_t, int64_t>{1, 11}));
}

TEST_F(EngineOpsTest, CountAction) {
  auto bag = Parallelize(&cluster_, Iota(42), 4);
  EXPECT_EQ(Count(bag), 42);
  EXPECT_EQ(cluster_.metrics().jobs, 1);
}

TEST_F(EngineOpsTest, NotEmptyAction) {
  auto bag = Parallelize(&cluster_, Iota(1), 4);
  EXPECT_TRUE(NotEmpty(bag));
  auto empty = Filter(bag, [](int64_t) { return false; });
  EXPECT_FALSE(NotEmpty(empty));
}

TEST_F(EngineOpsTest, CollectReturnsAll) {
  auto bag = Parallelize(&cluster_, Iota(25), 4);
  EXPECT_EQ(Sorted(Collect(bag)), Iota(25));
}

TEST_F(EngineOpsTest, RepartitionPreservesElements) {
  auto bag = Parallelize(&cluster_, Iota(100), 3);
  auto rep = Repartition(bag, 16);
  EXPECT_EQ(rep.num_partitions(), 16);
  EXPECT_EQ(Sorted(rep.ToVector()), Iota(100));
}

TEST_F(EngineOpsTest, PartitionByKeyColocatesKeys) {
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 100; ++i) data.emplace_back(i % 10, i);
  auto bag = Parallelize(&cluster_, data, 5);
  auto parted = PartitionByKey(bag, 4);
  // Each key must appear in exactly one partition.
  for (int64_t key = 0; key < 10; ++key) {
    int parts_with_key = 0;
    for (const auto& part : parted.partitions()) {
      bool has = false;
      for (const auto& [k, v] : part) has |= (k == key);
      parts_with_key += has ? 1 : 0;
    }
    EXPECT_EQ(parts_with_key, 1) << "key " << key;
  }
}

TEST_F(EngineOpsTest, ReduceByKeySums) {
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 100; ++i) data.emplace_back(i % 4, 1);
  auto bag = Parallelize(&cluster_, data, 6);
  auto counts =
      ReduceByKey(bag, [](int64_t a, int64_t b) { return a + b; }, 8);
  auto v = Sorted(counts.ToVector());
  ASSERT_EQ(v.size(), 4u);
  for (const auto& [k, c] : v) EXPECT_EQ(c, 25);
}

TEST_F(EngineOpsTest, ReduceByKeySingletonKeys) {
  std::vector<std::pair<int64_t, int64_t>> data{{7, 70}};
  auto bag = Parallelize(&cluster_, data, 3);
  auto out = ReduceByKey(bag, [](int64_t a, int64_t b) { return a + b; });
  auto v = out.ToVector();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, 7);
  EXPECT_EQ(v[0].second, 70);
}

TEST_F(EngineOpsTest, GroupByKeyCollectsGroups) {
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 30; ++i) data.emplace_back(i % 3, i);
  auto bag = Parallelize(&cluster_, data, 5);
  auto groups = GroupByKey(bag, 4);
  auto v = groups.ToVector();
  ASSERT_EQ(v.size(), 3u);
  for (auto& [k, vs] : v) {
    EXPECT_EQ(vs.size(), 10u);
    for (int64_t x : vs) EXPECT_EQ(x % 3, k);
  }
}

TEST_F(EngineOpsTest, DistinctRemovesDuplicates) {
  std::vector<int64_t> data;
  for (int64_t i = 0; i < 100; ++i) data.push_back(i % 10);
  auto bag = Parallelize(&cluster_, data, 6);
  auto d = Distinct(bag, 4);
  EXPECT_EQ(Sorted(d.ToVector()), Iota(10));
}

TEST_F(EngineOpsTest, DistinctOnPairs) {
  std::vector<std::pair<int64_t, int64_t>> data{{1, 2}, {1, 2}, {2, 1}};
  auto bag = Parallelize(&cluster_, data, 2);
  EXPECT_EQ(Distinct(bag).Size(), 2);
}

TEST_F(EngineOpsTest, RepartitionJoinMatchesKeys) {
  std::vector<std::pair<int64_t, int64_t>> left{{1, 10}, {2, 20}, {3, 30}};
  std::vector<std::pair<int64_t, std::string>> right{{2, "b"}, {3, "c"},
                                                     {4, "d"}};
  auto l = Parallelize(&cluster_, left, 2);
  auto r = Parallelize(&cluster_, right, 3);
  auto joined = RepartitionJoin(l, r, 4);
  auto v = joined.ToVector();
  ASSERT_EQ(v.size(), 2u);
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(v[0].first, 2);
  EXPECT_EQ(v[0].second.first, 20);
  EXPECT_EQ(v[0].second.second, "b");
  EXPECT_EQ(v[1].first, 3);
}

TEST_F(EngineOpsTest, RepartitionJoinDuplicateKeysCrossProduct) {
  std::vector<std::pair<int64_t, int64_t>> left{{1, 10}, {1, 11}};
  std::vector<std::pair<int64_t, int64_t>> right{{1, 100}, {1, 101}};
  auto l = Parallelize(&cluster_, left, 2);
  auto r = Parallelize(&cluster_, right, 2);
  EXPECT_EQ(RepartitionJoin(l, r).Size(), 4);
}

TEST_F(EngineOpsTest, BroadcastJoinMatchesRepartitionJoin) {
  std::vector<std::pair<int64_t, int64_t>> left, right;
  for (int64_t i = 0; i < 50; ++i) left.emplace_back(i % 10, i);
  for (int64_t i = 0; i < 10; ++i) right.emplace_back(i, 1000 + i);
  auto l = Parallelize(&cluster_, left, 4);
  auto r = Parallelize(&cluster_, right, 2);
  auto bj = Sorted(BroadcastJoin(l, r).ToVector());
  auto rj = Sorted(RepartitionJoin(l, r, 8).ToVector());
  EXPECT_EQ(bj, rj);
}

TEST_F(EngineOpsTest, LeftOuterJoinKeepsUnmatchedLeft) {
  std::vector<std::pair<int64_t, int64_t>> left{{1, 10}, {2, 20}};
  std::vector<std::pair<int64_t, int64_t>> right{{1, 100}};
  auto l = Parallelize(&cluster_, left, 2);
  auto r = Parallelize(&cluster_, right, 2);
  auto joined = LeftOuterJoin(l, r, 4);
  auto v = joined.ToVector();
  ASSERT_EQ(v.size(), 2u);
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_TRUE(v[0].second.second.has_value());
  EXPECT_EQ(*v[0].second.second, 100);
  EXPECT_FALSE(v[1].second.second.has_value());
}

/// A join payload that counts its copies (moves are free).
struct CopyCounted {
  static inline int64_t copies = 0;
  int64_t v = 0;
  CopyCounted() = default;
  explicit CopyCounted(int64_t x) : v(x) {}
  CopyCounted(const CopyCounted& o) : v(o.v) { ++copies; }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};

}  // namespace
}  // namespace matryoshka::engine

template <>
struct matryoshka::sizing_internal::Sizer<matryoshka::engine::CopyCounted> {
  static std::size_t Of(const matryoshka::engine::CopyCounted&) {
    return sizeof(matryoshka::engine::CopyCounted);
  }
};

namespace matryoshka::engine {
namespace {

TEST_F(EngineOpsTest, CoPartitionedJoinSideIsReadInPlace) {
  // A co-partitioned left side is reused as laid out: the joins copy each
  // left value once, into its output row, and never the side itself.
  std::vector<std::pair<int64_t, CopyCounted>> left;
  std::vector<std::pair<int64_t, int64_t>> right;
  for (int64_t i = 0; i < 200; ++i) left.emplace_back(i % 40, CopyCounted(i));
  for (int64_t i = 0; i < 30; ++i) right.emplace_back(i % 25, i);
  auto l = PartitionByKey(Parallelize(&cluster_, left, 3), 8);
  auto r = Parallelize(&cluster_, right, 2);
  l.partitions();  // materialize before counting

  CopyCounted::copies = 0;
  const int64_t inner_rows = RepartitionJoin(l, r).Size();
  EXPECT_GT(inner_rows, 0);
  EXPECT_EQ(CopyCounted::copies, inner_rows);

  CopyCounted::copies = 0;
  const int64_t outer_rows = LeftOuterJoin(l, r).Size();
  EXPECT_GT(outer_rows, inner_rows);  // keys 25..39 have no match
  EXPECT_EQ(CopyCounted::copies, outer_rows);
}

TEST_F(EngineOpsTest, FailedClusterShortCircuits) {
  auto bag = Parallelize(&cluster_, Iota(10), 2);
  cluster_.Fail(Status::OutOfMemory("injected"));
  auto mapped = Map(bag, [](int64_t x) { return x; });
  EXPECT_EQ(mapped.Size(), 0);
  EXPECT_EQ(Count(mapped), 0);
  EXPECT_TRUE(cluster_.status().IsOutOfMemory());
  EXPECT_EQ(cluster_.status().message(), "injected");  // first error sticks
}

TEST_F(EngineOpsTest, ParallelExecutionMatchesSequential) {
  ClusterConfig cfg = TestConfig();
  cfg.execute_parallel = true;
  Cluster par(cfg);
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 1000; ++i) data.emplace_back(i % 17, i);
  auto seq_bag = Parallelize(&cluster_, data, 13);
  auto par_bag = Parallelize(&par, data, 13);
  auto f = [](int64_t a, int64_t b) { return a + b; };
  EXPECT_EQ(Sorted(ReduceByKey(seq_bag, f, 7).ToVector()),
            Sorted(ReduceByKey(par_bag, f, 7).ToVector()));
}

}  // namespace
}  // namespace matryoshka::engine
