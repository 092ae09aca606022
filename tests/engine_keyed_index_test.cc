// Reference and collision tests for the keyed-build kernel
// (engine/keyed_index.h).
//
// KeyedIndexTest exercises the index itself: keys whose hashes all share
// one 32-bit tag (equality decides every probe), growth through several
// rehashes, Clear between BoundedAggregator spill passes, and slot numbers
// equal to first-occurrence order.
//
// KeyedOpsParallelDeterminismTest runs every keyed operator on colliding
// keys with a 4-thread pool, unbounded and under a 1-byte real budget, and
// compares each output partition, contents and order, with a sequential
// std::vector reference that finds first occurrences by linear scan. The
// suite name puts it under the tsan preset's ParallelDeterminism filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/bag.h"
#include "engine/external/external_group.h"
#include "engine/external/spill_file.h"
#include "engine/join.h"
#include "engine/keyed_index.h"
#include "engine/shuffle.h"

namespace matryoshka::engine {
namespace {

/// A key whose std::hash keeps only v % kHashClasses: all keys of a class
/// share one 64-bit hash, so one 32-bit tag and one home position.
constexpr int64_t kHashClasses = 3;

struct CollidingKey {
  int64_t v = 0;
  bool operator==(const CollidingKey& o) const { return v == o.v; }
};

}  // namespace
}  // namespace matryoshka::engine

template <>
struct std::hash<matryoshka::engine::CollidingKey> {
  std::size_t operator()(const matryoshka::engine::CollidingKey& k) const {
    return static_cast<std::size_t>(k.v % matryoshka::engine::kHashClasses);
  }
};

namespace matryoshka::engine {
namespace {

/// Slot order as the index numbers it, with `keys` as the caller's storage.
template <typename K>
uint32_t FindOrInsert(KeyedIndex* index, std::vector<K>* keys, const K& k) {
  const KeyedIndex::Probe probe = index->Find(k, *keys);
  if (probe.found()) return probe.slot;
  const uint32_t slot = index->Insert(probe);
  keys->push_back(k);
  return slot;
}

/// Position of the first element equal to `k` by linear scan, or size().
template <typename K>
std::size_t LinearFind(const std::vector<K>& keys, const K& k) {
  return static_cast<std::size_t>(
      std::find(keys.begin(), keys.end(), k) - keys.begin());
}

// --- The index ------------------------------------------------------------

TEST(KeyedIndexTest, EqualityDecidesWhenEveryTagCollides) {
  // One hash class: every key has the same tag and home position.
  std::vector<CollidingKey> keys;
  KeyedIndex index;
  for (int64_t i = 0; i < 600; ++i) {
    const CollidingKey k{i * kHashClasses};  // all in hash class 0
    EXPECT_EQ(FindOrInsert(&index, &keys, k), static_cast<uint32_t>(i));
  }
  for (int64_t i = 0; i < 600; ++i) {
    const CollidingKey k{i * kHashClasses};
    const KeyedIndex::Probe probe = index.Find(k, keys);
    ASSERT_TRUE(probe.found());
    EXPECT_EQ(probe.slot, static_cast<uint32_t>(i));
  }
  EXPECT_FALSE(index.Find(CollidingKey{600 * kHashClasses}, keys).found());
  EXPECT_FALSE(index.Find(CollidingKey{1}, keys).found());
  EXPECT_EQ(index.size(), 600u);
}

TEST(KeyedIndexTest, SlotsFollowFirstOccurrence) {
  // A stream with repeats: the slot of every element is the rank of its
  // key's first occurrence, as a linear scan finds it.
  std::vector<int64_t> stream;
  uint64_t x = 99;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    stream.push_back(static_cast<int64_t>((x >> 33) % 700) - 350);
  }
  KeyedIndex index;
  std::vector<int64_t> keys;
  std::vector<int64_t> reference;
  for (int64_t k : stream) {
    std::size_t rank = LinearFind(reference, k);
    if (rank == reference.size()) reference.push_back(k);
    EXPECT_EQ(FindOrInsert(&index, &keys, k), static_cast<uint32_t>(rank));
  }
  EXPECT_EQ(keys, reference);
}

TEST(KeyedIndexTest, GrowthThroughSeveralRehashesKeepsEverySlot) {
  // From the 16-entry minimum to 2^18 entries: 14 doublings, each one
  // re-placing the stored tags. Every key must keep its slot across all of
  // them, and absent keys must stay absent.
  KeyedIndex index;
  std::vector<int64_t> keys;
  const int64_t kKeys = 100000;
  for (int64_t i = 0; i < kKeys; ++i) {
    const int64_t k = i * 7919 + 13;
    ASSERT_EQ(FindOrInsert(&index, &keys, k), static_cast<uint32_t>(i));
    if (i == 15 || i == 1000 || i == kKeys - 1) {
      for (int64_t j = 0; j <= i; ++j) {
        const KeyedIndex::Probe probe = index.Find(j * 7919 + 13, keys);
        ASSERT_TRUE(probe.found()) << "key " << j << " lost at size " << i;
        ASSERT_EQ(probe.slot, static_cast<uint32_t>(j));
      }
      EXPECT_FALSE(index.Find(int64_t{-1}, keys).found());
    }
  }
}

TEST(KeyedIndexTest, ReserveAndClearRestartNumbering) {
  KeyedIndex index;
  index.Reserve(1000);
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 1000; ++i) FindOrInsert(&index, &keys, i);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  std::vector<int64_t> fresh;
  EXPECT_FALSE(index.Find(int64_t{5}, fresh).found());
  // Numbering restarts at 0 over the new storage.
  EXPECT_EQ(FindOrInsert(&index, &fresh, int64_t{500}), 0u);
  EXPECT_EQ(FindOrInsert(&index, &fresh, int64_t{5}), 1u);
  EXPECT_EQ(FindOrInsert(&index, &fresh, int64_t{500}), 0u);
}

TEST(KeyedIndexTest, BoundedAggregatorClearsIndexBetweenSpillPasses) {
  // A 1-byte quota admits one key per pass, so the index is cleared and
  // renumbered once per key. A stale entry would fold an element into the
  // previous pass's accumulator. Non-associative fold on colliding keys.
  std::vector<std::pair<CollidingKey, double>> stream;
  for (int64_t i = 0; i < 1500; ++i) {
    stream.emplace_back(CollidingKey{(i * 37) % 91},
                        1.0 / static_cast<double>(i + 1));
  }
  std::vector<std::pair<CollidingKey, double>> expected;
  for (const auto& [k, v] : stream) {
    auto it = std::find_if(expected.begin(), expected.end(),
                           [&](const auto& e) { return e.first == k; });
    if (it == expected.end()) {
      expected.emplace_back(k, v);
    } else {
      it->second = it->second * 0.75 - v;
    }
  }
  for (std::size_t quota : {std::size_t{1}, static_cast<std::size_t>(-1)}) {
    auto init = [](double&& v) { return v; };
    auto absorb = [](double& acc, double&& v) { acc = acc * 0.75 - v; };
    auto growth = [](const double&) { return std::size_t{0}; };
    external::SpillStats stats;
    external::BoundedAggregator<CollidingKey, double, double, decltype(init),
                                decltype(absorb), decltype(growth)>
        agg(quota, init, absorb, growth, stats);
    for (const auto& [k, v] : stream) agg.Feed(k, v);
    EXPECT_EQ(agg.Finish(), expected) << "quota " << quota;
    ASSERT_TRUE(agg.status().ok());
    if (quota == 1) {
      EXPECT_GT(stats.spill_events, 0);
    }
  }
  EXPECT_EQ(external::SpillFile::LiveCount(), 0);
}

// --- The keyed operators against a sequential reference -------------------

constexpr int64_t kParts = 8;

ClusterConfig Config(std::size_t budget) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = kParts;
  cfg.execute_parallel = true;
  cfg.pool_threads = 4;
  cfg.real_memory_budget_bytes = budget;
  return cfg;
}

/// Unbounded (0) and one byte: every flush opportunity spills.
const std::size_t kBudgets[] = {0, 1};

using KD = std::pair<CollidingKey, double>;
using KI = std::pair<CollidingKey, int64_t>;

/// `n` pairs over `keys` distinct keys, `key_step` apart, in a scrambled
/// order: repeated keys, all colliding within their hash class.
std::vector<KI> MakeStream(int n, int64_t keys, int64_t key_step,
                           uint64_t seed) {
  std::vector<KI> out;
  uint64_t x = seed;
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    out.emplace_back(
        CollidingKey{static_cast<int64_t>((x >> 33) % keys) * key_step}, i);
  }
  return out;
}

template <typename T>
using Parts = std::vector<std::vector<T>>;

std::size_t PartOf(const CollidingKey& k) {
  return static_cast<std::size_t>(Hasher{}(k) % static_cast<uint64_t>(kParts));
}

/// The reference scatter: producers in order, elements in order.
template <typename T, typename KeyOf>
Parts<T> RefScatter(const Parts<T>& in, const KeyOf& key_of) {
  Parts<T> out(kParts);
  for (const auto& part : in) {
    for (const T& x : part) out[PartOf(key_of(x))].push_back(x);
  }
  return out;
}

template <typename KV>
const CollidingKey& KeyOfPair(const KV& kv) {
  return kv.first;
}
const CollidingKey& KeyOfSelf(const CollidingKey& k) { return k; }

/// First-occurrence fold by linear scan.
template <typename V, typename A, typename Init, typename Absorb>
std::vector<std::pair<CollidingKey, A>> RefFold(
    const std::vector<std::pair<CollidingKey, V>>& in, const Init& init,
    const Absorb& absorb) {
  std::vector<std::pair<CollidingKey, A>> out;
  for (const auto& [k, v] : in) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& e) { return e.first == k; });
    if (it == out.end()) {
      out.emplace_back(k, init(v));
    } else {
      absorb(it->second, v);
    }
  }
  return out;
}

/// First occurrences of `in`, by linear scan.
std::vector<CollidingKey> RefDedup(const std::vector<CollidingKey>& in) {
  std::vector<CollidingKey> out;
  for (const auto& x : in) {
    if (LinearFind(out, x) == out.size()) out.push_back(x);
  }
  return out;
}

/// Non-associative, non-commutative double fold.
double Fold(double acc, double v) { return acc * 0.75 - v; }

std::vector<std::pair<CollidingKey, double>> RefReduce(
    const std::vector<KD>& in) {
  return RefFold<double, double>(
      in, [](double v) { return v; },
      [](double& acc, double v) { acc = Fold(acc, v); });
}

Bag<KD> Doubles(Cluster* c, int n, uint64_t seed) {
  std::vector<KD> kv;
  for (const auto& [k, i] : MakeStream(n, 150, 1, seed)) {
    kv.emplace_back(k, 1.0 / static_cast<double>(i + 1));
  }
  return Parallelize(c, kv, 6);
}

/// Runs `check(cluster)` under every budget arm and requires a healthy
/// cluster and no leaked spill file afterwards.
template <typename Check>
void ForEachBudget(const Check& check) {
  for (std::size_t budget : kBudgets) {
    SCOPED_TRACE(budget == 0 ? "unbounded" : "1-byte budget");
    Cluster c(Config(budget));
    check(&c);
    EXPECT_TRUE(c.ok());
  }
  EXPECT_EQ(external::SpillFile::LiveCount(), 0);
}

TEST(KeyedOpsParallelDeterminismTest, ReduceByKeyNonAssociativeFold) {
  ForEachBudget([](Cluster* c) {
    const Bag<KD> in = Doubles(c, 3000, 1);
    // Shuffle path: combine per input partition, scatter, merge.
    Parts<KD> combined;
    for (const auto& part : in.partitions()) {
      combined.push_back(RefReduce(part));
    }
    Parts<KD> expected;
    for (const auto& part : RefScatter(combined, KeyOfPair<KD>)) {
      expected.push_back(RefReduce(part));
    }
    EXPECT_EQ(ReduceByKey(in, Fold, kParts).partitions(), expected);

    // Narrow path: a co-partitioned input reduces in place.
    const Bag<KD> keyed = PartitionByKey(in, kParts);
    Parts<KD> narrow;
    for (const auto& part : RefScatter(in.partitions(), KeyOfPair<KD>)) {
      narrow.push_back(RefReduce(part));
    }
    EXPECT_EQ(ReduceByKey(keyed, Fold, kParts).partitions(), narrow);
  });
}

TEST(KeyedOpsParallelDeterminismTest, GroupByKeyKeepsArrivalOrder) {
  ForEachBudget([](Cluster* c) {
    const Bag<KD> in = Doubles(c, 3000, 2);
    using Group = std::pair<CollidingKey, std::vector<double>>;
    Parts<Group> groups;
    for (const auto& part : RefScatter(in.partitions(), KeyOfPair<KD>)) {
      groups.push_back(RefFold<double, std::vector<double>>(
          part, [](double v) { return std::vector<double>{v}; },
          [](std::vector<double>& g, double v) { g.push_back(v); }));
    }
    EXPECT_EQ(GroupByKey(in, kParts).partitions(), groups);
  });
}

TEST(KeyedOpsParallelDeterminismTest, DistinctKeepsFirstOccurrence) {
  ForEachBudget([](Cluster* c) {
    auto keys_of = [](const std::vector<KI>& kv) {
      std::vector<CollidingKey> out;
      for (const auto& e : kv) out.push_back(e.first);
      return out;
    };
    const Bag<CollidingKey> a =
        Parallelize(c, keys_of(MakeStream(2500, 200, 1, 5)), 6);

    Parts<CollidingKey> pre;
    for (const auto& part : a.partitions()) pre.push_back(RefDedup(part));
    Parts<CollidingKey> distinct;
    for (const auto& part : RefScatter(pre, KeyOfSelf)) {
      distinct.push_back(RefDedup(part));
    }
    EXPECT_EQ(Distinct(a, kParts).partitions(), distinct);
  });
}

TEST(KeyedOpsParallelDeterminismTest, JoinsEmitMatchesInArrivalOrder) {
  ForEachBudget([](Cluster* c) {
    // Left keys 0..149, right keys 0, 2, ..., 178: some left keys match
    // several right values, some none, and some right keys no left key.
    const Bag<KI> left = Parallelize(c, MakeStream(1500, 150, 1, 7), 5);
    const Bag<KI> right = Parallelize(c, MakeStream(400, 90, 2, 8), 3);
    using Inner = std::pair<CollidingKey, std::pair<int64_t, int64_t>>;
    using Outer =
        std::pair<CollidingKey, std::pair<int64_t, std::optional<int64_t>>>;
    auto matches = [](const std::vector<KI>& build, const CollidingKey& k) {
      std::vector<int64_t> out;
      for (const auto& [bk, w] : build) {
        if (bk == k) out.push_back(w);
      }
      return out;
    };

    const Parts<KI> ls = RefScatter(left.partitions(), KeyOfPair<KI>);
    const Parts<KI> rs = RefScatter(right.partitions(), KeyOfPair<KI>);
    Parts<Inner> inner(kParts);
    Parts<Outer> outer(kParts);
    for (std::size_t i = 0; i < ls.size(); ++i) {
      for (const auto& [k, v] : ls[i]) {
        const std::vector<int64_t> ws = matches(rs[i], k);
        for (int64_t w : ws) inner[i].emplace_back(k, std::make_pair(v, w));
        if (ws.empty()) {
          outer[i].emplace_back(k, std::make_pair(v, std::nullopt));
        }
        for (int64_t w : ws) {
          outer[i].emplace_back(
              k, std::make_pair(v, std::optional<int64_t>(w)));
        }
      }
    }
    EXPECT_EQ(RepartitionJoin(left, right, kParts).partitions(), inner);
    EXPECT_EQ(LeftOuterJoin(left, right, kParts).partitions(), outer);

    // Broadcast: the left layout stays; the build side is the right bag in
    // partition order.
    std::vector<KI> flat_right;
    for (const auto& part : right.partitions()) {
      flat_right.insert(flat_right.end(), part.begin(), part.end());
    }
    Parts<Inner> broadcast;
    for (const auto& part : left.partitions()) {
      broadcast.emplace_back();
      for (const auto& [k, v] : part) {
        for (int64_t w : matches(flat_right, k)) {
          broadcast.back().emplace_back(k, std::make_pair(v, w));
        }
      }
    }
    EXPECT_EQ(BroadcastJoin(left, right).partitions(), broadcast);
  });
}

}  // namespace
}  // namespace matryoshka::engine
