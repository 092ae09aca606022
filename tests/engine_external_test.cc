// Locks down the external execution determinism contract (DESIGN.md): for
// ANY real memory budget — including one so small every wide operator spills
// on every flush opportunity — and ANY pool size, the engine must produce
// bit-identical output data (contents AND order), key_partitions, and
// simulated Metrics versus the unbounded in-memory run. Only real wall-clock
// time and the real_* spill counters may differ between budget arms, and the
// real_* counters themselves must be deterministic for a fixed budget across
// pool sizes. Also covers the SpillFile cleanup contract (no temp files
// survive any path, fault/retry paths included), the spill serde round-trip,
// and Metrics::Reset re-arming the real-spill counters.
//
// The suite is named ExternalDeterminismTest so the tsan/spill-tsan test
// presets pick it up by regex.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/external/external_group.h"
#include "engine/external/external_scatter.h"
#include "engine/external/memory_budget.h"
#include "engine/external/serde.h"
#include "engine/external/spill_file.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/recovery.h"
#include "engine/shuffle.h"

namespace matryoshka::engine {
namespace {

using external::kSpillable;
using external::MemoryBudget;
using external::SpillFile;
using external::SpillSerde;
using external::SpillStats;

/// True when scripts/check.sh spill forces a budget through the environment:
/// assertions that require the unbounded arm to really be unbounded must be
/// skipped then (the override only applies to budget-0 configs by design).
bool EnvBudgetForced() {
  return std::getenv("MATRYOSHKA_REAL_BUDGET") != nullptr;
}

ClusterConfig Config(bool parallel, std::size_t budget) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = parallel;
  // Pin the pool size so real multi-thread spill/merge runs regardless of
  // the host's core count.
  cfg.pool_threads = 4;
  cfg.real_memory_budget_bytes = budget;
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

// The budget sweep: unbounded, comfortable, tight, and pathological (1 byte:
// every flush opportunity spills). All four must agree bit for bit.
const std::size_t kBudgets[] = {0, 1 << 20, 1 << 12, 1};

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

/// The SIMULATED metrics identity of the contract: everything except the
/// real_* counters (which legitimately differ between budget arms).
void ExpectSameSimulatedMetrics(const Metrics& a, const Metrics& b) {
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

template <typename T>
void ExpectBitIdenticalBags(const Bag<T>& a, const Bag<T>& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  EXPECT_EQ(a.key_partitions(), b.key_partitions());
  for (int64_t i = 0; i < a.num_partitions(); ++i) {
    EXPECT_EQ(a.partitions()[static_cast<std::size_t>(i)],
              b.partitions()[static_cast<std::size_t>(i)])
        << "partition " << i << " differs from the unbounded run";
  }
}

/// Runs `make_op` (Cluster* -> Bag) unbounded and across the budget sweep —
/// pool off and on, clean and under an active FaultPlan — and requires
/// bit-identical bags and simulated metrics each time. Also pins the
/// SpillFile cleanup contract: zero live spill files after every arm.
template <typename MakeOp>
void ExpectBudgetInvariant(const MakeOp& make_op) {
  for (bool faulty : {false, true}) {
    for (bool parallel : {false, true}) {
      ClusterConfig base_cfg = Config(parallel, 0);
      if (faulty) base_cfg = WithFaults(base_cfg);
      Cluster base(base_cfg);
      auto expected = make_op(&base);
      ASSERT_TRUE(base.ok());
      for (std::size_t budget : kBudgets) {
        if (budget == 0) continue;
        ClusterConfig cfg = Config(parallel, budget);
        if (faulty) cfg = WithFaults(cfg);
        Cluster c(cfg);
        auto got = make_op(&c);
        ASSERT_TRUE(c.ok());
        ExpectBitIdenticalBags(expected, got);
        ExpectSameSimulatedMetrics(base.metrics(), c.metrics());
        EXPECT_EQ(SpillFile::LiveCount(), 0)
            << "spill files leaked (budget " << budget << ")";
      }
    }
  }
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

// --- Serde round-trip ----------------------------------------------------

template <typename T>
T RoundTrip(const T& v) {
  std::string buf;
  SpillSerde<T>::Write(v, &buf);
  const char* p = buf.data();
  const char* end = buf.data() + buf.size();
  T out = SpillSerde<T>::Read(&p, end);
  EXPECT_EQ(p, end) << "serde did not consume exactly its own bytes";
  return out;
}

TEST(ExternalDeterminismTest, SerdeRoundTripsExactly) {
  EXPECT_EQ(RoundTrip<int64_t>(-42), -42);
  EXPECT_EQ(RoundTrip<uint64_t>(~0ULL), ~0ULL);
  // Doubles round-trip bit-exactly (memcpy, no text formatting).
  const double pi = 3.141592653589793;
  EXPECT_EQ(RoundTrip(pi), pi);
  EXPECT_EQ(RoundTrip(std::string("hello spill")), "hello spill");
  EXPECT_EQ(RoundTrip(std::string()), "");
  const std::pair<int64_t, std::string> kv{7, "seven"};
  EXPECT_EQ(RoundTrip(kv), kv);
  const std::tuple<int32_t, double, std::string> t{1, 2.5, "x"};
  EXPECT_EQ(RoundTrip(t), t);
  const std::vector<std::pair<int64_t, int64_t>> vec{{1, 2}, {3, 4}};
  EXPECT_EQ(RoundTrip(vec), vec);
  const std::pair<std::optional<int64_t>, std::optional<std::string>> sides{
      std::nullopt, std::string("right")};
  EXPECT_EQ(RoundTrip(sides), sides);
}

TEST(ExternalDeterminismTest, SpillableGateMatchesSerdeCoverage) {
  static_assert(kSpillable<int64_t>);
  static_assert(kSpillable<std::string>);
  static_assert(kSpillable<std::pair<int64_t, std::string>>);
  static_assert(kSpillable<std::vector<std::pair<int64_t, int64_t>>>);
  static_assert(kSpillable<std::optional<std::string>>);
  static_assert(kSpillable<std::tuple<int32_t, double, std::string>>);
  struct NotTrivial {
    virtual ~NotTrivial() = default;
  };
  static_assert(!kSpillable<NotTrivial>);
  static_assert(!kSpillable<std::pair<int64_t, NotTrivial>>);
}

// --- SpillFile cleanup contract ------------------------------------------

TEST(ExternalDeterminismTest, SpillFileIsUnlinkedAndCountsLive) {
  namespace fs = std::filesystem;
  const char* env = std::getenv("TMPDIR");
  const fs::path tmp = (env != nullptr && env[0] != '\0') ? env : "/tmp";
  auto count_visible = [&tmp] {
    int n = 0;
    for (const auto& e : fs::directory_iterator(tmp)) {
      if (e.path().filename().string().rfind("matryoshka-spill-", 0) == 0) {
        ++n;
      }
    }
    return n;
  };
  const int64_t live_before = SpillFile::LiveCount();
  {
    SpillFile f;
    EXPECT_EQ(SpillFile::LiveCount(), live_before + 1);
    // Unlinked at creation: never visible in the directory, so no crash or
    // error path can leave it behind.
    EXPECT_EQ(count_visible(), 0);
    const uint64_t at = f.Append("hello");
    EXPECT_EQ(at, 0u);
    EXPECT_EQ(f.Append(" world"), 5u);
    std::string out;
    f.ReadAt(0, 11, &out);
    EXPECT_EQ(out, "hello world");
    f.ReadAt(6, 5, &out);
    EXPECT_EQ(out, "world");
  }
  EXPECT_EQ(SpillFile::LiveCount(), live_before);
  EXPECT_EQ(count_visible(), 0);
}

TEST(ExternalDeterminismTest, ScatterOpensNoSpillFileWhileProducersFit) {
  // A budgeted wide op whose producers all fit their quota must not touch
  // the temp dir: with TMPDIR pointing nowhere, creating a spill file would
  // abort the process. The reference runs first, with TMPDIR intact (a
  // forced MATRYOSHKA_REAL_BUDGET applies to the budget-0 config).
  auto run = [](std::size_t budget) {
    Cluster c(Config(true, budget));
    auto out = ReduceByKey(MakePairs(&c),
                           [](int64_t a, int64_t b) { return a + b; });
    EXPECT_TRUE(c.ok());
    return out.partitions();
  };
  const auto expected = run(0);
  const char* prev = std::getenv("TMPDIR");
  const std::optional<std::string> saved =
      prev != nullptr ? std::optional<std::string>(prev) : std::nullopt;
  const std::filesystem::path missing =
      std::filesystem::temp_directory_path() / "matryoshka-no-such-dir";
  ASSERT_FALSE(std::filesystem::exists(missing));
  ::setenv("TMPDIR", missing.c_str(), /*overwrite=*/1);
  const auto got = run(std::size_t{1} << 30);
  if (saved.has_value()) {
    ::setenv("TMPDIR", saved->c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

// --- External scatter kernel ---------------------------------------------

TEST(ExternalDeterminismTest, ExternalScatterMatchesReferenceLoop) {
  // Same ground truth as the in-memory kernel's test: the sequential
  // producer-order scatter loop. Skewed, empty, and ragged producers; the
  // full budget sweep x pool sizes 0..4.
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
  for (std::size_t budget : {std::size_t{1}, std::size_t{256},
                             std::size_t{1} << 12, std::size_t{1} << 24}) {
    MemoryBudget mb(budget);
    SpillStats serial_stats;
    EXPECT_EQ(external::ExternalScatter<int64_t>(nullptr, inputs, kParts,
                                                 part_of, mb, &serial_stats),
              expected)
        << "budget " << budget << ", no pool";
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      SpillStats stats;
      EXPECT_EQ(external::ExternalScatter<int64_t>(&pool, inputs, kParts,
                                                   part_of, mb, &stats),
                expected)
          << "budget " << budget << ", " << threads << " threads";
      // Real spill counters are a pure function of (inputs, budget): the
      // pool must not move them.
      EXPECT_EQ(stats.spill_events, serial_stats.spill_events);
      EXPECT_EQ(stats.spilled_bytes, serial_stats.spilled_bytes);
      EXPECT_EQ(stats.spill_runs, serial_stats.spill_runs);
    }
    // A 1-byte budget must actually have spilled.
    if (budget == 1) {
      EXPECT_GT(serial_stats.spill_events, 0);
    }
  }
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

// --- Bounded aggregation --------------------------------------------------

TEST(ExternalDeterminismTest, BoundedAggregatorPreservesFoldOrder) {
  // Non-associative float folding: (a - b) depends on exact element order,
  // so any budget-dependent reordering or partial-merge would change the
  // result. Compare the 1-byte-quota build against the unbounded one.
  std::vector<std::pair<int64_t, double>> stream;
  for (int64_t i = 0; i < 2000; ++i) {
    stream.emplace_back(i % 97, 1.0 / static_cast<double>(i + 1));
  }
  auto run = [&stream](std::size_t quota) {
    SpillStats stats;
    auto init = [](double&& v) { return v; };
    auto absorb = [](double& acc, double&& v) { acc = acc - v; };
    auto growth = [](const double&) { return std::size_t{0}; };
    external::BoundedAggregator<int64_t, double, double, decltype(init),
                                decltype(absorb), decltype(growth)>
        agg(quota, init, absorb, growth, stats);
    for (const auto& [k, v] : stream) agg.Feed(k, v);
    return std::make_pair(agg.Finish(), stats);
  };
  auto [unbounded, no_stats] = run(static_cast<std::size_t>(-1));
  EXPECT_EQ(no_stats.spill_events, 0);
  // First-occurrence emission order: keys 0..96 in that exact order.
  ASSERT_EQ(unbounded.size(), 97u);
  for (std::size_t i = 0; i < unbounded.size(); ++i) {
    EXPECT_EQ(unbounded[i].first, static_cast<int64_t>(i));
  }
  for (std::size_t quota : {std::size_t{1}, std::size_t{100},
                            std::size_t{4096}}) {
    auto [bounded, stats] = run(quota);
    EXPECT_EQ(bounded, unbounded) << "quota " << quota;
    if (quota == 1) {
      EXPECT_GT(stats.spill_events, 0);
    }
  }
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

// --- Per-operator budget invariance --------------------------------------

TEST(ExternalDeterminismTest, RepartitionBudgetInvariant) {
  ExpectBudgetInvariant(
      [](Cluster* c) { return Repartition(MakePairs(c), 5); });
}

TEST(ExternalDeterminismTest, ReduceByKeyBudgetInvariant) {
  ExpectBudgetInvariant([](Cluster* c) {
    return ReduceByKey(
        MakePairs(c), [](int64_t a, int64_t b) { return a + b; }, 8);
  });
}

TEST(ExternalDeterminismTest, ReduceByKeyNarrowPathBudgetInvariant) {
  // The co-partitioned fast path reduces without a shuffle; its bounded
  // aggregation must also be budget-invariant.
  ExpectBudgetInvariant([](Cluster* c) {
    auto keyed = PartitionByKey(MakePairs(c), 8);
    return ReduceByKey(
        keyed, [](int64_t a, int64_t b) { return a + b; }, 8);
  });
}

TEST(ExternalDeterminismTest, NonAssociativeReduceBudgetInvariant) {
  // Floating-point (a - b) folding detects any budget-dependent reordering
  // or partial-map merge in the external path.
  ExpectBudgetInvariant([](Cluster* c) {
    auto vals = MapValues(MakePairs(c), [](int64_t v) {
      return 1.0 / static_cast<double>(v + 2);
    });
    return ReduceByKey(
        vals, [](double a, double b) { return a - b; }, 8);
  });
}

TEST(ExternalDeterminismTest, GroupByKeyBudgetInvariant) {
  ExpectBudgetInvariant(
      [](Cluster* c) { return GroupByKey(MakePairs(c), 8); });
}

TEST(ExternalDeterminismTest, DistinctBudgetInvariant) {
  ExpectBudgetInvariant(
      [](Cluster* c) { return Distinct(Keys(MakePairs(c)), 8); });
}

TEST(ExternalDeterminismTest, JoinsBudgetInvariant) {
  ExpectBudgetInvariant([](Cluster* c) {
    auto pairs = MakePairs(c);
    auto reduced = ReduceByKey(
        pairs, [](int64_t a, int64_t b) { return a + b; }, 8);
    return RepartitionJoin(pairs, reduced, 8);
  });
  ExpectBudgetInvariant([](Cluster* c) {
    return LeftOuterJoin(MakeSmallPairs(c), MakePairs(c), 8);
  });
}

TEST(ExternalDeterminismTest, StringKeysBudgetInvariant) {
  // Variable-length serde (length-prefixed strings) through a real shuffle
  // and group build.
  ExpectBudgetInvariant([](Cluster* c) {
    std::vector<std::pair<std::string, int64_t>> kv;
    for (int64_t i = 0; i < 3000; ++i) {
      kv.emplace_back("key-" + std::to_string(i % 64) +
                          std::string(static_cast<std::size_t>(i % 7), 'x'),
                      i);
    }
    auto bag = Parallelize(c, kv, 8);
    return GroupByKey(bag, 8);
  });
}

// --- Real-spill counters --------------------------------------------------

TEST(ExternalDeterminismTest, RealCountersZeroWhenUnbounded) {
  if (EnvBudgetForced()) GTEST_SKIP() << "MATRYOSHKA_REAL_BUDGET forced";
  Cluster c(Config(true, 0));
  auto grouped = GroupByKey(MakePairs(&c), 8);
  (void)Count(grouped);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.metrics().real_spilled_bytes, 0.0);
  EXPECT_EQ(c.metrics().real_spill_events, 0);
  EXPECT_EQ(c.metrics().real_spill_runs, 0);
}

TEST(ExternalDeterminismTest, RealCountersDeterministicAcrossPools) {
  auto run = [](bool parallel) {
    Cluster c(Config(parallel, 512));
    auto reduced = ReduceByKey(
        MakePairs(&c), [](int64_t a, int64_t b) { return a + b; }, 8);
    auto grouped = GroupByKey(MakePairs(&c), 8);
    (void)Count(reduced);
    (void)Count(grouped);
    EXPECT_TRUE(c.ok());
    return c.metrics();
  };
  const Metrics serial = run(false);
  const Metrics parallel = run(true);
  EXPECT_GT(serial.real_spill_events, 0);
  EXPECT_GT(serial.real_spilled_bytes, 0.0);
  EXPECT_GT(serial.real_spill_runs, 0);
  EXPECT_EQ(serial.real_spill_events, parallel.real_spill_events);
  EXPECT_EQ(serial.real_spilled_bytes, parallel.real_spilled_bytes);
  EXPECT_EQ(serial.real_spill_runs, parallel.real_spill_runs);
  // And repeatable run to run.
  const Metrics again = run(true);
  EXPECT_EQ(parallel.real_spill_events, again.real_spill_events);
  EXPECT_EQ(parallel.real_spilled_bytes, again.real_spilled_bytes);
}

TEST(ExternalDeterminismTest, ResetRearmsRealSpillCounters) {
  Cluster c(Config(true, 512));
  (void)Count(GroupByKey(MakePairs(&c), 8));
  ASSERT_TRUE(c.ok());
  const Metrics first = c.metrics();
  EXPECT_GT(first.real_spill_events, 0);
  c.Reset();
  EXPECT_EQ(c.metrics().real_spilled_bytes, 0.0);
  EXPECT_EQ(c.metrics().real_spill_events, 0);
  EXPECT_EQ(c.metrics().real_spill_runs, 0);
  // A fresh identical run accumulates the same totals again.
  (void)Count(GroupByKey(MakePairs(&c), 8));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.metrics().real_spill_events, first.real_spill_events);
  EXPECT_EQ(c.metrics().real_spilled_bytes, first.real_spilled_bytes);
  EXPECT_EQ(c.metrics().real_spill_runs, first.real_spill_runs);
}

TEST(ExternalDeterminismTest, EnvOverrideOnlyAppliesToUnboundedConfigs) {
  if (EnvBudgetForced()) {
    // Under check.sh spill: a zero config resolves to the forced budget ...
    Cluster forced(Config(false, 0));
    EXPECT_FALSE(forced.real_budget().unbounded());
    // ... but an explicit budget always wins.
    Cluster explicit_budget(Config(false, 123456));
    EXPECT_EQ(explicit_budget.real_budget().total(), 123456u);
    return;
  }
  Cluster c(Config(false, 0));
  EXPECT_TRUE(c.real_budget().unbounded());
  Cluster bounded(Config(false, 4096));
  EXPECT_EQ(bounded.real_budget().total(), 4096u);
}

#if defined(GTEST_HAS_DEATH_TEST)
TEST(ExternalBudgetEnvDeathTest, OnlyPlainDecimalBytesParse) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* prev = std::getenv("MATRYOSHKA_REAL_BUDGET");
  const std::optional<std::string> saved =
      prev != nullptr ? std::optional<std::string>(prev) : std::nullopt;
  // A typo must fail loudly rather than run unbounded ("", "abc"), with a
  // 4-byte budget ("4MB"), with 2^64-1 ("-1"), or with 0 ("0x10").
  for (const char* junk : {"", "abc", "4MB", "-1", "0x10"}) {
    ::setenv("MATRYOSHKA_REAL_BUDGET", junk, /*overwrite=*/1);
    EXPECT_DEATH({ Cluster c(Config(false, 0)); },
                 "MATRYOSHKA_REAL_BUDGET=\"[^\"]*\" is not a plain decimal "
                 "byte count")
        << "value '" << junk << "'";
  }
  ::setenv("MATRYOSHKA_REAL_BUDGET", "4096", /*overwrite=*/1);
  {
    Cluster c(Config(false, 0));
    EXPECT_EQ(c.real_budget().total(), 4096u);
  }
  if (saved.has_value()) {
    ::setenv("MATRYOSHKA_REAL_BUDGET", saved->c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("MATRYOSHKA_REAL_BUDGET");
  }
}
#endif  // GTEST_HAS_DEATH_TEST

// --- Fault and retry paths ------------------------------------------------

TEST(ExternalDeterminismTest, NoSpillFileLeaksUnderFaultsAndRetries) {
  // Sticky failure mid-program: the retry budget is exhausted, operators
  // early-out, and every spill file opened before the failure must still be
  // gone when the bags go out of scope.
  {
    ClusterConfig cfg = Config(true, 512);
    cfg.faults.seed = 11;
    cfg.faults.task_failure_prob = 0.9;
    cfg.faults.max_task_retries = 1;
    Cluster c(cfg);
    auto grouped = GroupByKey(MakePairs(&c), 8);
    auto reduced = ReduceByKey(
        MakePairs(&c), [](int64_t a, int64_t b) { return a + b; }, 8);
    EXPECT_FALSE(c.ok());  // retries exhausted -> sticky TaskFailed
  }
  EXPECT_EQ(SpillFile::LiveCount(), 0);

  // Driver-level retries re-run the whole program over the external paths.
  {
    ClusterConfig cfg = Config(true, 512);
    cfg.faults.seed = 11;
    cfg.faults.task_failure_prob = 0.9;
    cfg.faults.max_task_retries = 1;
    cfg.recovery.max_driver_retries = 2;
    cfg.recovery.driver_backoff_s = 0.1;
    Cluster c(cfg);
    (void)RunWithRecovery(&c, [&](int /*attempt*/) {
      auto grouped = GroupByKey(MakePairs(&c), 8);
      (void)Count(grouped);
    });
    EXPECT_GT(c.metrics().driver_retries, 0);
  }
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ExternalDeterminismTest, SuiteBudgetInvariantWithActions) {
  // A full mixed program (shuffles + group + join + actions) at a tight
  // budget must reproduce the unbounded scalar results exactly.
  auto run = [](std::size_t budget) {
    Cluster c(Config(true, budget));
    auto pairs = MakePairs(&c);
    auto reduced = ReduceByKey(
        pairs, [](int64_t a, int64_t b) { return a + b; }, 8);
    auto grouped = GroupByKey(pairs, 8);
    auto sizes = MapValues(grouped, [](const std::vector<int64_t>& g) {
      return static_cast<int64_t>(g.size());
    });
    auto joined = RepartitionJoin(reduced, sizes, 8);
    auto folded = MapValues(
        joined, [](const std::pair<int64_t, int64_t>& vw) {
          return vw.first * 31 + vw.second;
        });
    auto collected = Collect(folded);
    auto count = Count(Distinct(Keys(pairs), 8));
    EXPECT_TRUE(c.ok());
    return std::make_tuple(collected, count, c.metrics().simulated_time_s);
  };
  const auto expected = run(0);
  for (std::size_t budget : kBudgets) {
    if (budget == 0) continue;
    EXPECT_EQ(run(budget), expected) << "budget " << budget;
  }
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

}  // namespace
}  // namespace matryoshka::engine
