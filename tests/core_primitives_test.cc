// Tests for the Matryoshka nesting primitives: Tag, LiftingContext,
// InnerScalar, InnerBag, and NestedBag. These check the semantics the
// correctness proof (Sec. 7) relies on: lifted operations commute with the
// nested<->flat representation change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/matryoshka.h"

namespace matryoshka::core {
namespace {

/// A grouping key whose std::hash is constant: any two keys share one
/// 64-bit hash, and so one tag.
struct CollidingKey {
  int64_t v = 0;
  bool operator==(const CollidingKey& o) const { return v == o.v; }
};

/// Inverse of `x ^= x >> s`.
constexpr uint64_t UnXorShift(uint64_t y, int s) {
  uint64_t x = y;
  for (int known = s; known < 64; known += s) x = y ^ (x >> s);
  return x;
}

/// Multiplicative inverse of odd `a` modulo 2^64 (Newton's iteration; each
/// step doubles the correct low bits, starting from 3).
constexpr uint64_t InverseMod64(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// Inverse of Mix64, which is a bijection.
constexpr uint64_t UnMix64(uint64_t h) {
  h = UnXorShift(h, 31);
  h *= InverseMod64(0x94d049bb133111ebULL);
  h = UnXorShift(h, 27);
  h *= InverseMod64(0xbf58476d1ce4e5b9ULL);
  return UnXorShift(h, 30);
}

/// A grouping key whose mixed hash (Hasher) is `mixed`.
struct MixedHashKey {
  uint64_t mixed = 0;
  bool operator==(const MixedHashKey& o) const { return mixed == o.mixed; }
};

}  // namespace
}  // namespace matryoshka::core

template <>
struct std::hash<matryoshka::core::CollidingKey> {
  std::size_t operator()(const matryoshka::core::CollidingKey&) const {
    return 0;
  }
};

template <>
struct std::hash<matryoshka::core::MixedHashKey> {
  std::size_t operator()(const matryoshka::core::MixedHashKey& k) const {
    return matryoshka::core::UnMix64(k.mixed);
  }
};

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

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The largest child id a tag holds: Tag::kChildIdBits bits.
constexpr uint64_t kMaxChildId = (uint64_t{1} << Tag::kChildIdBits) - 1;

/// `ids` as a tag: a root, then at most one child.
Tag MakeTag(const std::vector<uint64_t>& ids) {
  Tag t;
  for (uint64_t id : ids) t = t.Child(id);
  return t;
}

TEST(TagTest, RootAndChild) {
  Tag r = Tag::Root(7);
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_EQ(r.id_at(0), 7u);
  Tag c = r.Child(3);
  EXPECT_EQ(c.depth(), 2u);
  EXPECT_EQ(c.id_at(0), 7u);
  EXPECT_EQ(c.id_at(1), 3u);
  EXPECT_EQ(c.Parent(), r);
}

TEST(TagTest, ParentRoundTripsAtBothDepths) {
  EXPECT_NE(Tag(), Tag::Root(0));
  EXPECT_EQ(Tag().depth(), 0u);
  for (uint64_t root : {uint64_t{0}, uint64_t{1} << 63, ~uint64_t{0}}) {
    EXPECT_EQ(Tag::Root(root).Parent(), Tag());
    EXPECT_EQ(Tag().Child(root), Tag::Root(root));
    for (uint64_t child : {uint64_t{0}, uint64_t{5}, kMaxChildId}) {
      const Tag c = Tag::Root(root).Child(child);
      EXPECT_EQ(c.id_at(0), root);
      EXPECT_EQ(c.id_at(1), child);
      EXPECT_EQ(c.Parent(), Tag::Root(root));
    }
  }
}

TEST(TagTest, HashValueKeepsTheWideLayoutsFormula) {
  // Partition assignment hashes tags, so this formula (the depth as the
  // seed, then one HashCombine per id) is what keeps partitions, and the
  // simulated clock, independent of the tag's in-memory layout.
  auto formula = [](const std::vector<uint64_t>& ids) {
    std::size_t seed = ids.size();
    for (uint64_t id : ids) seed = HashCombine(seed, id);
    return seed;
  };
  const std::vector<std::vector<uint64_t>> cases{
      {},
      {0},
      {7},
      {uint64_t{1} << 63},
      {~uint64_t{0}},
      {7, 0},
      {7, 3},
      {~uint64_t{0}, kMaxChildId},
      {uint64_t{1} << 63, uint64_t{1} << 61}};
  for (const auto& ids : cases) {
    const Tag t = MakeTag(ids);
    EXPECT_EQ(t.HashValue(), formula(ids)) << t.ToString();
    EXPECT_EQ(std::hash<Tag>{}(t), formula(ids)) << t.ToString();
  }
}

TEST(TagTest, OrderIsDepthThenIdsLexicographic) {
  std::vector<std::vector<uint64_t>> ids{{}};
  const std::vector<uint64_t> roots{0,
                                    1,
                                    2,
                                    (uint64_t{1} << 62) + 1,
                                    uint64_t{1} << 63,
                                    (uint64_t{1} << 63) + 1,
                                    ~uint64_t{0}};
  const std::vector<uint64_t> children{0, 1, 2, uint64_t{1} << 61,
                                       kMaxChildId};
  for (uint64_t r : roots) {
    ids.push_back({r});
    for (uint64_t c : children) ids.push_back({r, c});
  }
  // The reference key: (depth, id_0, ..., id_{depth-1}).
  auto key = [](std::vector<uint64_t> v) {
    v.insert(v.begin(), v.size());
    return v;
  };
  for (const auto& a : ids) {
    for (const auto& b : ids) {
      const Tag ta = MakeTag(a);
      const Tag tb = MakeTag(b);
      EXPECT_EQ(ta < tb, key(a) < key(b)) << ta.ToString() << tb.ToString();
      EXPECT_EQ(ta == tb, a == b) << ta.ToString() << tb.ToString();
    }
  }
}

TEST(TagDeathTest, ChildBeyondMaxDepthOrChildIdWidthDies) {
  EXPECT_DEATH(Tag::Root(1).Child(2).Child(3), "deeper than 2 levels");
  EXPECT_DEATH(Tag::Root(1).Child(kMaxChildId + 1), "wider than 62 bits");
}

TEST(TagTest, EqualityAndOrdering) {
  EXPECT_EQ(Tag::Root(1), Tag::Root(1));
  EXPECT_NE(Tag::Root(1), Tag::Root(2));
  EXPECT_NE(Tag::Root(1), Tag::Root(1).Child(0));
  EXPECT_LT(Tag::Root(1), Tag::Root(2));
  EXPECT_LT(Tag::Root(5), Tag::Root(1).Child(0));  // depth dominates
}

TEST(TagTest, HashDistinguishesDepth) {
  std::hash<Tag> h;
  EXPECT_NE(h(Tag::Root(1)), h(Tag::Root(1).Child(1)));
  EXPECT_EQ(h(Tag::Root(9)), h(Tag::Root(9)));
}

TEST(TagTest, ToStringShowsComposite) {
  EXPECT_EQ(Tag::Root(1).Child(2).ToString(), "[1.2]");
}

class CorePrimitivesTest : public ::testing::Test {
 protected:
  CorePrimitivesTest() : cluster_(TestConfig()) {}

  /// A NestedBag of (key -> values) built from flat pairs.
  NestedBag<int64_t, int64_t> MakeNested(
      const std::vector<std::pair<int64_t, int64_t>>& data,
      OptimizerOptions opts = {}) {
    auto bag = Parallelize(&cluster_, data, 5);
    return GroupByKeyIntoNestedBag(bag, opts);
  }

  Cluster cluster_;
};

TEST_F(CorePrimitivesTest, GroupByKeyIntoNestedBagStructure) {
  auto nested = MakeNested({{1, 10}, {1, 11}, {2, 20}, {3, 30}, {3, 31}});
  EXPECT_EQ(nested.ctx().num_tags(), 3);
  EXPECT_EQ(nested.ctx().tags().Size(), 3);
  EXPECT_EQ(nested.keys().repr().Size(), 3);
  EXPECT_EQ(nested.values().repr().Size(), 5);
  // Keys InnerScalar has one (tag, key) per group with unique tags.
  auto keys = nested.keys().repr().ToVector();
  std::set<Tag> tags;
  std::set<int64_t> key_set;
  for (auto& [t, k] : keys) {
    tags.insert(t);
    key_set.insert(k);
  }
  EXPECT_EQ(tags.size(), 3u);
  EXPECT_EQ(key_set, (std::set<int64_t>{1, 2, 3}));
}

TEST_F(CorePrimitivesTest, NestedBagValuesShareKeyTags) {
  auto nested = MakeNested({{1, 10}, {1, 11}, {2, 20}});
  std::map<Tag, int64_t> tag_to_key;
  for (auto& [t, k] : nested.keys().repr().ToVector()) tag_to_key[t] = k;
  for (auto& [t, v] : nested.values().repr().ToVector()) {
    ASSERT_TRUE(tag_to_key.count(t));
    // Values 1x belong to key 1, 2x to key 2.
    EXPECT_EQ(v / 10, tag_to_key[t]);
  }
}

TEST_F(CorePrimitivesTest, LiftFlatBagAssignsOneTagPerElement) {
  auto bag = Parallelize(&cluster_, std::vector<int64_t>{5, 6, 7}, 2);
  InnerScalar<int64_t> lifted = LiftFlatBag(bag);
  EXPECT_EQ(lifted.ctx().num_tags(), 3);
  auto v = lifted.repr().ToVector();
  std::set<Tag> tags;
  for (auto& [t, x] : v) tags.insert(t);
  EXPECT_EQ(tags.size(), 3u);
  EXPECT_EQ(Sorted(lifted.Flatten().ToVector()),
            (std::vector<int64_t>{5, 6, 7}));
}

TEST_F(CorePrimitivesTest, UnaryScalarOpAppliesPerTag) {
  auto bag = Parallelize(&cluster_, std::vector<int64_t>{1, 2, 3}, 2);
  auto lifted = LiftFlatBag(bag);
  auto negated = UnaryScalarOp(lifted, [](int64_t x) { return -x; });
  EXPECT_EQ(Sorted(negated.Flatten().ToVector()),
            (std::vector<int64_t>{-3, -2, -1}));
  EXPECT_EQ(negated.repr().Size(), 3);
}

TEST_F(CorePrimitivesTest, BinaryScalarOpJoinsMatchingTags) {
  auto bag = Parallelize(&cluster_, std::vector<int64_t>{1, 2, 3}, 2);
  auto a = LiftFlatBag(bag);
  auto doubled = UnaryScalarOp(a, [](int64_t x) { return 2 * x; });
  auto sum = BinaryScalarOp(a, doubled,
                            [](int64_t x, int64_t y) { return x + y; });
  // Each tag: x + 2x = 3x.
  EXPECT_EQ(Sorted(sum.Flatten().ToVector()), (std::vector<int64_t>{3, 6, 9}));
}

TEST_F(CorePrimitivesTest, BinaryScalarOpMixedValueTypes) {
  auto bag = Parallelize(&cluster_, std::vector<int64_t>{4, 9}, 2);
  auto a = LiftFlatBag(bag);
  auto as_double = UnaryScalarOp(a, [](int64_t x) { return 0.5 * x; });
  auto ratio = BinaryScalarOp(
      a, as_double, [](int64_t x, double y) { return static_cast<double>(x) / y; });
  for (double r : ratio.Flatten().ToVector()) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST_F(CorePrimitivesTest, LiftConstantReplicatesPerTag) {
  auto nested = MakeNested({{1, 10}, {2, 20}, {3, 30}});
  auto c = LiftConstant(nested.ctx(), int64_t{42});
  EXPECT_EQ(c.repr().Size(), 3);
  for (int64_t v : c.Flatten().ToVector()) EXPECT_EQ(v, 42);
}

TEST_F(CorePrimitivesTest, LiftedMapPreservesTags) {
  auto nested = MakeNested({{1, 10}, {1, 11}, {2, 20}});
  auto mapped = LiftedMap(nested.values(), [](int64_t v) { return v + 1; });
  EXPECT_EQ(Sorted(mapped.Flatten().ToVector()),
            (std::vector<int64_t>{11, 12, 21}));
  // Tags unchanged: same multiset of tags as input.
  auto in_tags = engine::Keys(nested.values().repr()).ToVector();
  auto out_tags = engine::Keys(mapped.repr()).ToVector();
  EXPECT_EQ(Sorted(in_tags), Sorted(out_tags));
}

TEST_F(CorePrimitivesTest, LiftedFilterDropsWithinGroups) {
  auto nested = MakeNested({{1, 10}, {1, 11}, {2, 20}, {2, 21}});
  auto odd = LiftedFilter(nested.values(),
                          [](int64_t v) { return v % 2 == 1; });
  EXPECT_EQ(Sorted(odd.Flatten().ToVector()),
            (std::vector<int64_t>{11, 21}));
}

TEST_F(CorePrimitivesTest, LiftedFlatMapExpandsPerElement) {
  auto nested = MakeNested({{1, 10}, {2, 20}});
  auto out = LiftedFlatMap(nested.values(), [](int64_t v) {
    return std::vector<int64_t>{v, v + 1};
  });
  EXPECT_EQ(out.repr().Size(), 4);
}

TEST_F(CorePrimitivesTest, LiftedReducePerGroup) {
  auto nested = MakeNested({{1, 10}, {1, 11}, {2, 20}});
  auto sums = LiftedReduce(nested.values(),
                           [](int64_t a, int64_t b) { return a + b; });
  auto with_keys = ZipWithKeys(nested.keys(), sums);
  auto v = Sorted(with_keys.ToVector());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], (std::pair<int64_t, int64_t>{1, 21}));
  EXPECT_EQ(v[1], (std::pair<int64_t, int64_t>{2, 20}));
}

TEST_F(CorePrimitivesTest, LiftedCountCountsPerGroup) {
  auto nested = MakeNested({{1, 10}, {1, 11}, {1, 12}, {2, 20}});
  auto counts = LiftedCount(nested.values());
  auto v = Sorted(ZipWithKeys(nested.keys(), counts).ToVector());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].second, 3);
  EXPECT_EQ(v[1].second, 1);
}

TEST_F(CorePrimitivesTest, LiftedCountProducesZeroForEmptyBags) {
  // Filter everything out of group 2, then count: group 2 must report 0
  // (Sec. 4.4: operations producing output for empty bags need the tag bag).
  auto nested = MakeNested({{1, 10}, {2, 21}});
  auto filtered = LiftedFilter(nested.values(),
                               [](int64_t v) { return v % 2 == 0; });
  auto counts = LiftedCount(filtered);
  auto v = Sorted(ZipWithKeys(nested.keys(), counts).ToVector());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], (std::pair<int64_t, int64_t>{1, 1}));
  EXPECT_EQ(v[1], (std::pair<int64_t, int64_t>{2, 0}));
}

TEST_F(CorePrimitivesTest, LiftedFoldUsesZeroForEmpty) {
  auto nested = MakeNested({{1, 10}, {2, 21}});
  auto none = LiftedFilter(nested.values(), [](int64_t) { return false; });
  auto folded = LiftedFold(
      none, int64_t{-7}, [](int64_t v) { return v; },
      [](int64_t a, int64_t b) { return a + b; });
  for (auto& [k, s] : ZipWithKeys(nested.keys(), folded).ToVector()) {
    EXPECT_EQ(s, -7);
  }
}

TEST_F(CorePrimitivesTest, LiftedDistinctPerGroup) {
  // Same value in two groups must survive in both; duplicates within a
  // group collapse.
  auto nested = MakeNested({{1, 10}, {1, 10}, {2, 10}});
  auto d = LiftedDistinct(nested.values());
  EXPECT_EQ(d.repr().Size(), 2);
  auto counts = LiftedCount(d);
  for (auto& [k, c] : ZipWithKeys(nested.keys(), counts).ToVector()) {
    EXPECT_EQ(c, 1);
  }
}

TEST_F(CorePrimitivesTest, LiftedReduceByKeyKeepsGroupsApart) {
  // Inner bags of (word, 1) pairs; the same word in different groups must
  // not merge (composite (tag, key) rekeying).
  std::vector<std::pair<int64_t, std::pair<int64_t, int64_t>>> data{
      {1, {100, 1}}, {1, {100, 1}}, {1, {200, 1}}, {2, {100, 1}}};
  auto bag = Parallelize(&cluster_, data, 3);
  auto nested = GroupByKeyIntoNestedBag(bag);
  auto counts = LiftedReduceByKey(
      nested.values(), [](int64_t a, int64_t b) { return a + b; });
  // Group 1: (100,2), (200,1); group 2: (100,1).
  std::map<std::pair<int64_t, int64_t>, int64_t> result;
  auto keyed = ZipWithKeys(nested.keys(),
                           LiftedCount(counts));  // counts per group
  for (auto& [k, c] : keyed.ToVector()) {
    result[{k, 0}] = c;
  }
  EXPECT_EQ((result[{1, 0}]), 2);  // two distinct words in group 1
  EXPECT_EQ((result[{2, 0}]), 1);
  auto all = Sorted(counts.Flatten().ToVector());
  EXPECT_EQ(all, (std::vector<std::pair<int64_t, int64_t>>{
                     {100, 1}, {100, 2}, {200, 1}}));
}

TEST_F(CorePrimitivesTest, LiftedJoinMatchesWithinGroupOnly) {
  std::vector<std::pair<int64_t, std::pair<int64_t, int64_t>>> left{
      {1, {100, 5}}, {2, {100, 6}}};
  std::vector<std::pair<int64_t, std::pair<int64_t, int64_t>>> right{
      {1, {100, 50}}};
  auto lb = GroupByKeyIntoNestedBag(Parallelize(&cluster_, left, 2));
  // Build a second InnerBag in the SAME tag space by reusing lb's context.
  std::vector<std::pair<Tag, std::pair<int64_t, int64_t>>> right_tagged;
  for (auto& [g, kv] : right) {
    right_tagged.emplace_back(internal::TagOfKey(g), kv);
  }
  InnerBag<std::pair<int64_t, int64_t>> rb(
      lb.ctx(), Parallelize(&cluster_, right_tagged, 2));
  auto joined = LiftedJoin(lb.values(), rb);
  // Only group 1 joins: (100, (5, 50)).
  auto v = joined.Flatten().ToVector();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, 100);
  EXPECT_EQ(v[0].second, (std::pair<int64_t, int64_t>{5, 50}));
}

TEST_F(CorePrimitivesTest, LiftedGroupByKeyGroupsPerTag) {
  std::vector<std::pair<int64_t, std::pair<int64_t, int64_t>>> data{
      {1, {7, 70}}, {1, {7, 71}}, {2, {7, 72}}};
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, data, 2));
  auto grouped = LiftedGroupByKey(nested.values());
  auto v = grouped.Flatten().ToVector();
  ASSERT_EQ(v.size(), 2u);  // key 7 in group 1 and key 7 in group 2
  std::multiset<std::size_t> sizes;
  for (auto& [k, vs] : v) sizes.insert(vs.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 2}));
}

TEST_F(CorePrimitivesTest, LiftedUnionConcatenatesPerTag) {
  auto nested = MakeNested({{1, 10}, {2, 20}});
  auto u = LiftedUnion(nested.values(), nested.values());
  auto counts = LiftedCount(u);
  for (auto& [k, c] : ZipWithKeys(nested.keys(), counts).ToVector()) {
    EXPECT_EQ(c, 2);
  }
}

TEST_F(CorePrimitivesTest, ZipWithKeysPairsKeysWithResults) {
  auto nested = MakeNested({{5, 1}, {6, 2}, {6, 3}});
  auto counts = LiftedCount(nested.values());
  auto v = Sorted(ZipWithKeys(nested.keys(), counts).ToVector());
  EXPECT_EQ(v, (std::vector<std::pair<int64_t, int64_t>>{{5, 1}, {6, 2}}));
}

TEST_F(CorePrimitivesTest, MapWithLiftedUdfCalledExactlyOnce) {
  auto nested = MakeNested({{1, 10}, {2, 20}, {3, 30}});
  int calls = 0;
  auto result = MapWithLiftedUdf(
      nested, [&](const LiftingContext& ctx, const InnerScalar<int64_t>& keys,
                  const InnerBag<int64_t>& group) {
        ++calls;
        EXPECT_EQ(ctx.num_tags(), 3);
        (void)keys;
        return LiftedCount(group);
      });
  EXPECT_EQ(calls, 1);  // three groups, ONE UDF execution
  EXPECT_EQ(result.repr().Size(), 3);
}

TEST_F(CorePrimitivesTest, MapWithLiftedUdfOnFlatBag) {
  auto params = Parallelize(&cluster_, std::vector<int64_t>{2, 3, 4}, 2);
  int calls = 0;
  auto result = MapWithLiftedUdf(params, [&](const LiftingContext& ctx,
                                             const InnerScalar<int64_t>& p) {
    ++calls;
    EXPECT_EQ(ctx.num_tags(), 3);
    return UnaryScalarOp(p, [](int64_t x) { return x * x; });
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(Sorted(result.Flatten().ToVector()),
            (std::vector<int64_t>{4, 9, 16}));
}

TEST_F(CorePrimitivesTest, MultiLevelNestingComposesTags) {
  // Outer groups by g; inside the lifted UDF we group by h — tags must
  // become composite (depth 2) and keep (g, h) pairs apart.
  using Inner = std::pair<int64_t, int64_t>;  // (h, value)
  std::vector<std::pair<int64_t, Inner>> data{
      {1, {10, 100}}, {1, {10, 101}}, {1, {11, 110}}, {2, {10, 200}}};
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, data, 3));
  auto inner_nested = LiftedGroupByKeyIntoNestedBag(nested.values());
  EXPECT_EQ(inner_nested.ctx().num_tags(), 3);  // (1,10), (1,11), (2,10)
  for (auto& [t, k] : inner_nested.keys().repr().ToVector()) {
    EXPECT_EQ(t.depth(), 2u);
    (void)k;
  }
  auto counts = LiftedCount(inner_nested.values());
  auto v = ZipWithKeys(inner_nested.keys(), counts).ToVector();
  std::multiset<int64_t> count_set;
  for (auto& [h, c] : v) count_set.insert(c);
  EXPECT_EQ(count_set, (std::multiset<int64_t>{1, 1, 2}));
}

TEST_F(CorePrimitivesTest, GroupByKeyFailsTypedOnTagCollision) {
  // Keys 1 and 2 hash alike. Sharing one tag would merge their groups
  // (both would count 3); the grouping must fail typed instead.
  std::vector<std::pair<CollidingKey, int64_t>> data{
      {CollidingKey{1}, 10}, {CollidingKey{1}, 11}, {CollidingKey{2}, 20}};
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, data, 3));
  auto counts = LiftedCount(nested.values());
  auto v = ZipWithKeys(nested.keys(), counts).ToVector();
  EXPECT_TRUE(cluster_.status().IsUnsupported())
      << cluster_.status().ToString();
  EXPECT_NE(cluster_.status().message().find(
                internal::TagOfKey(CollidingKey{1}).ToString()),
            std::string::npos)
      << cluster_.status().message();
  EXPECT_TRUE(v.empty());
}

TEST_F(CorePrimitivesTest, LiftedGroupByKeyFailsTypedOnTagCollision) {
  // Inside outer group 1, inner keys 1 and 2 hash alike and would share one
  // child tag. Outer group 2 alone holds no collision.
  using Inner = std::pair<CollidingKey, int64_t>;  // (h, value)
  std::vector<std::pair<int64_t, Inner>> data{
      {1, {CollidingKey{1}, 100}},
      {1, {CollidingKey{1}, 101}},
      {1, {CollidingKey{2}, 110}},
      {2, {CollidingKey{1}, 200}}};
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, data, 3));
  ASSERT_TRUE(cluster_.ok());
  auto inner_nested = LiftedGroupByKeyIntoNestedBag(nested.values());
  auto counts = LiftedCount(inner_nested.values());
  auto v = ZipWithKeys(inner_nested.keys(), counts).ToVector();
  EXPECT_TRUE(cluster_.status().IsUnsupported())
      << cluster_.status().ToString();
  const Tag outer = internal::TagOfKey(int64_t{1});
  EXPECT_NE(cluster_.status().message().find(
                internal::ChildTagOfKey(outer, CollidingKey{1}).ToString()),
            std::string::npos)
      << cluster_.status().message();
  EXPECT_TRUE(v.empty());
}

TEST_F(CorePrimitivesTest, LiftedGroupByKeyFailsTypedOnNarrowedChildId) {
  // The inner keys' mixed hashes differ only in the low bits ChildTagOfKey
  // drops: the keys share one child tag, though their differing hashes
  // place them apart in the key Distinct.
  const uint64_t h = 0x243f6a8885a308d0ULL;
  const MixedHashKey a{h};
  const MixedHashKey b{h | 3};
  ASSERT_EQ(Hasher{}(a), h);
  ASSERT_EQ(Hasher{}(b), h | 3);
  const Tag outer = internal::TagOfKey(int64_t{1});
  const Tag shared = internal::ChildTagOfKey(outer, a);
  ASSERT_EQ(internal::ChildTagOfKey(outer, b), shared);
  using Inner = std::pair<MixedHashKey, int64_t>;
  std::vector<std::pair<int64_t, Inner>> data{
      {1, {a, 100}}, {1, {a, 101}}, {1, {b, 110}}};
  auto nested = GroupByKeyIntoNestedBag(Parallelize(&cluster_, data, 3));
  ASSERT_TRUE(cluster_.ok());
  auto inner_nested = LiftedGroupByKeyIntoNestedBag(nested.values());
  auto counts = LiftedCount(inner_nested.values());
  auto v = ZipWithKeys(inner_nested.keys(), counts).ToVector();
  EXPECT_TRUE(cluster_.status().IsUnsupported())
      << cluster_.status().ToString();
  EXPECT_NE(cluster_.status().message().find(shared.ToString()),
            std::string::npos)
      << cluster_.status().message();
  EXPECT_TRUE(v.empty());
}

TEST_F(CorePrimitivesTest, FailedClusterPropagatesThroughPrimitives) {
  auto nested = MakeNested({{1, 10}});
  cluster_.Fail(Status::OutOfMemory("injected"));
  auto counts = LiftedCount(nested.values());
  EXPECT_EQ(counts.repr().Size(), 0);
  EXPECT_TRUE(cluster_.status().IsOutOfMemory());
}

}  // namespace
}  // namespace matryoshka::core
