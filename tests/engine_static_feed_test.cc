// The static feed representation (engine/fused_feed.h): the forced
// boundaries (inexact counts, depth cap) under static chains, the
// sibling-memoization re-rooting contract, the one erased hop a sliced
// Bag<T> handle costs, and a compile guard that the narrow-op path stays
// usable for move-only (non-spillable) element types.
//
// Bit-identity of default chains against the per-op reference
// (max_chain_depth = 1) is locked by engine_parallel_determinism_test; this
// file covers the representation-specific mechanics those sweeps cannot
// observe.

#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/ops.h"
#include "gtest/gtest.h"

namespace matryoshka::engine {

/// A deliberately move-only, non-trivially-copyable element: the compile
/// guard below pins that pure map chains neither copy elements nor drag in
/// the spill serializer for types that cannot support either.
struct MoveOnlyElem {
  std::unique_ptr<int64_t> v;
};

/// MaybeAutoCheckpoint probes RealBagBytes on every narrow-op output, so
/// even a never-spilled element type needs a size estimate.
inline std::size_t EstimateSize(const MoveOnlyElem&) {
  return sizeof(MoveOnlyElem) + sizeof(int64_t);
}

namespace {

ClusterConfig SerialConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 2;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 4;
  return cfg;
}

Bag<std::pair<int64_t, int64_t>> MakePairs(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 200; ++i) data.emplace_back(i % 7, i);
  return Parallelize(c, std::move(data), 4);
}

// --- Forced boundaries under the static representation ---------------------

TEST(StaticFeedTest, ChainOfNarrowOpsStaysPendingUntilForced) {
  auto program = [](Cluster* c) {
    auto s1 = Map(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first, p.second + 1);
    });
    auto s2 = MapValues(s1, [](int64_t v) { return v * 3; });
    auto s3 = Map(s2, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first ^ 1, p.second);
    });
    return MapValues(s3, [](int64_t v) { return v - 2; });
  };
  Cluster c(SerialConfig());
  auto s4 = program(&c);
  EXPECT_TRUE(s4.pending());
  EXPECT_EQ(s4.pending_chain_ops(), 4);

  // The per-op reference: at depth 1 every op forced its predecessor.
  ClusterConfig per_op_cfg = SerialConfig();
  per_op_cfg.fusion.max_chain_depth = 1;
  Cluster per_op(per_op_cfg);
  auto e4 = program(&per_op);
  EXPECT_EQ(e4.pending_chain_ops(), 1);
  EXPECT_EQ(Collect(s4), Collect(e4));
}

TEST(StaticFeedTest, InexactCountsForceABoundaryMidChain) {
  Cluster c(SerialConfig());
  // FlatMap demotes the tracked counts to a bound, so the next narrow op
  // must materialize the chain and start fresh on the forced output.
  auto flat = FlatMap(Keys(MakePairs(&c)), [](int64_t k) {
    return std::vector<int64_t>{k, k + 100};
  });
  EXPECT_TRUE(flat.pending());
  EXPECT_FALSE(flat.counts_exact());
  auto next = Map(flat, [](int64_t v) { return v * 2; });
  // ForceBoundary forced the inexact upstream; the new op starts a fresh
  // one-op chain over the materialization.
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(next.pending_chain_ops(), 1);
  std::vector<int64_t> got = Collect(next);
  ASSERT_EQ(got.size(), 400u);
  EXPECT_TRUE(c.ok());
}

TEST(StaticFeedTest, DepthCapForcesMidChainGracefully) {
  ClusterConfig cfg = SerialConfig();
  cfg.fusion.max_chain_depth = 2;
  Cluster c(cfg);
  // Literal auto chaining keeps extending the concrete FusedBag chain, so
  // the cap is enforced on the zero-erasure path itself.
  auto s1 = Map(MakePairs(&c), [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first, p.second + 1);
  });
  auto s2 = MapValues(s1, [](int64_t v) { return v + 10; });
  EXPECT_EQ(s2.pending_chain_ops(), 2);
  auto s3 = MapValues(s2, [](int64_t v) { return v * 2; });
  // s2 hit the cap: composing s3 forced it and started a fresh chain.
  EXPECT_TRUE(s3.pending());
  EXPECT_EQ(s3.pending_chain_ops(), 1);
  std::vector<std::pair<int64_t, int64_t>> got = Collect(s3);
  ASSERT_EQ(got.size(), 200u);
  EXPECT_EQ(got.front().second, (0 + 1 + 10) * 2);
  EXPECT_TRUE(c.ok());
}

TEST(StaticFeedTest, SiblingForceMemoizesAndLaterOpsReuse) {
  // Once any handle of a shared pending chain forces it, later narrow ops
  // must re-root at the memoized partitions instead of re-running the
  // chain's UDFs (the udf-call counter would double otherwise).
  Cluster c(SerialConfig());
  auto calls = std::make_shared<int64_t>(0);
  auto mapped = Map(MakePairs(&c),
                    [calls](const std::pair<int64_t, int64_t>& p) {
                      ++*calls;
                      return std::pair<int64_t, int64_t>(p.first,
                                                         p.second * 2);
                    });
  EXPECT_TRUE(mapped.pending());
  // Force through a sibling handle: `mapped` itself stays pending but its
  // shared chain state now carries the memoized partitions — the exact
  // state in which a composing consumer must NOT re-run the chain.
  Bag<std::pair<int64_t, int64_t>> sibling = mapped;
  sibling.Force();
  EXPECT_EQ(*calls, 200);
  EXPECT_TRUE(mapped.pending());
  EXPECT_TRUE(mapped.pending_materialized());
  // Both overloads re-root: the FusedBag one declines to extend, the
  // Bag<T> one (reached here through a still-pending sliced copy) flips its
  // handle to the memoized partitions.
  using P = std::pair<int64_t, int64_t>;
  auto bump = [](int64_t v) { return v + 1; };
  const Bag<P> sliced = mapped;
  for (const Bag<P>& downstream :
       {Bag<P>(MapValues(mapped, bump)), Bag<P>(MapValues(sliced, bump))}) {
    ASSERT_EQ(Collect(downstream).size(), 200u);
  }
  EXPECT_EQ(*calls, 200) << "composing past a memoized chain re-ran it";
}

// --- The one erased hop: a FusedBag sliced to a plain Bag<T> ----------------

TEST(StaticFeedTest, SlicedChainExtendsThroughOneErasedHop) {
  // Assigning a pending chain to a plain Bag<T> hides its concrete type;
  // the next narrow op roots a new chain at the erased pending feed. The
  // result must stay pending as ONE two-op chain (no force at the hop), run
  // every upstream UDF exactly once per element, and match the unsliced
  // chain on data, partitioning and Metrics.
  auto program = [](Cluster* c, const std::shared_ptr<int64_t>& calls,
                    bool sliced) {
    auto upstream = MapValues(MakePairs(c), [calls](int64_t v) {
      ++*calls;
      return v * 5;
    });
    auto extend = [](const auto& in) {
      return Map(in, [](const std::pair<int64_t, int64_t>& p) {
        return std::pair<int64_t, int64_t>(p.first, p.second + p.first);
      });
    };
    if (!sliced) return Bag<std::pair<int64_t, int64_t>>(extend(upstream));
    Bag<std::pair<int64_t, int64_t>> plain = upstream;
    return Bag<std::pair<int64_t, int64_t>>(extend(plain));
  };
  Cluster fused(SerialConfig());
  Cluster erased(SerialConfig());
  auto fused_calls = std::make_shared<int64_t>(0);
  auto erased_calls = std::make_shared<int64_t>(0);
  auto want = program(&fused, fused_calls, /*sliced=*/false);
  auto got = program(&erased, erased_calls, /*sliced=*/true);
  EXPECT_TRUE(got.pending());
  EXPECT_EQ(got.pending_chain_ops(), 2);
  EXPECT_EQ(*erased_calls, 0) << "the erased hop forced its upstream";
  EXPECT_EQ(got.partitions(), want.partitions());
  EXPECT_EQ(got.key_partitions(), want.key_partitions());
  EXPECT_EQ(*erased_calls, 200);
  EXPECT_EQ(*fused_calls, 200);
  const Metrics& a = fused.metrics();
  const Metrics& b = erased.metrics();
  EXPECT_EQ(a.simulated_time_s, b.simulated_time_s);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.elements_processed, b.elements_processed);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.broadcast_bytes, b.broadcast_bytes);
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes);
  EXPECT_EQ(a.peak_task_bytes, b.peak_task_bytes);
  EXPECT_EQ(a.peak_machine_bytes, b.peak_machine_bytes);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.recovery_time_s, b.recovery_time_s);
  EXPECT_TRUE(fused.ok());
  EXPECT_TRUE(erased.ok());
}

// --- Compile guard: move-only, non-spillable element types ------------------

TEST(StaticFeedTest, MoveOnlyElementsFlowThroughNarrowChains) {
  Cluster c(SerialConfig());
  std::vector<MoveOnlyElem> data;
  for (int64_t i = 0; i < 64; ++i) {
    data.push_back(MoveOnlyElem{std::make_unique<int64_t>(i)});
  }
  auto bag = Parallelize(&c, std::move(data), 4);
  auto bumped = Map(bag, [](const MoveOnlyElem& e) {
    return MoveOnlyElem{std::make_unique<int64_t>(*e.v + 1)};
  });
  auto summed = Map(bumped, [](const MoveOnlyElem& e) { return *e.v; });
  EXPECT_EQ(Count(summed), 64);
  std::vector<int64_t> values = Collect(summed);
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), int64_t{0}),
            64 * 65 / 2);
  EXPECT_TRUE(c.ok());
}

}  // namespace
}  // namespace matryoshka::engine
