// The chaos suite: locks down the real-fault contract (DESIGN.md).
//
//  - Determinism: injected faults are a pure function of
//    (seed, stream, site, epoch) — counters and outputs identical across
//    pool sizes, budgets, and repeated runs; a disarmed registry leaves
//    everything byte-identical with all four real_io counters at zero.
//  - Hardened IO: transient EIO recovers through bounded retry; short
//    pwrite/pread transfers complete through the loops; on-disk corruption
//    is caught by the run checksums as kDataCorruption, never silent wrong
//    data; ENOSPC surfaces typed as kResourceExhausted.
//  - Graceful degradation: with fallback_in_memory the engine re-runs the
//    failed op in memory bit-identically (counted in inmemory_fallbacks);
//    without it the job fails with the typed status. Injected allocation
//    failure never falls back (more memory is not a fix for OOM).
//  - ThreadPool exception safety: a throwing ParallelFor body rethrows on
//    the calling thread after the barrier; a throwing fire-and-forget task
//    is swallowed and counted; engine operators surface throwing UDFs as a
//    typed kInternal failure instead of std::terminate.
//  - Serving: IO failures retry with a fresh fault epoch, ENOSPC is shed
//    without retry, plan-body exceptions fail one request typed, shutdown
//    under an active storm drains cleanly with zero spill-file leaks.
//
// Suite names contain "Chaos" so the chaos/chaos-asan/chaos-tsan presets
// pick them up by regex; the whole file is TSan-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoints.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/bag.h"
#include "engine/external/external_group.h"
#include "engine/external/memory_budget.h"
#include "engine/external/spill_file.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/recovery.h"
#include "engine/shuffle.h"
#include "serve/plan.h"
#include "serve/registry.h"
#include "serve/serving_driver.h"

namespace matryoshka::engine {
namespace {

using external::MemoryBudget;
using external::SpillFile;
using external::SpillStats;

/// True when scripts/check.sh chaos forces a storm through the environment:
/// assertions that require a genuinely disarmed registry must skip then
/// (the override only applies to configs whose own plan is inactive).
bool EnvFaultsForced() {
  return std::getenv("MATRYOSHKA_REAL_FAULTS") != nullptr;
}

ClusterConfig Config(bool parallel, std::size_t budget) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = parallel;
  cfg.pool_threads = 4;
  cfg.real_memory_budget_bytes = budget;
  return cfg;
}

/// A storm every hardened path can absorb: transient EIO (one attempt, well
/// inside the retry budget) plus short transfers on both directions.
RealFaultPlan RecoverableStorm(uint64_t seed = 2021) {
  RealFaultPlan p;
  p.seed = seed;
  p.write_eio_prob = 0.3;
  p.read_eio_prob = 0.3;
  p.short_write_prob = 0.5;
  p.short_read_prob = 0.5;
  p.transient_duration = 1;
  return p;
}

Bag<std::pair<int64_t, int64_t>> MakePairs(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 5000; ++i) kv.emplace_back((i * 37) % 128, i % 17);
  return Parallelize(c, kv, 8);
}

template <typename T>
void ExpectBitIdenticalBags(const Bag<T>& a, const Bag<T>& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  EXPECT_EQ(a.key_partitions(), b.key_partitions());
  for (int64_t i = 0; i < a.num_partitions(); ++i) {
    EXPECT_EQ(a.partitions()[static_cast<std::size_t>(i)],
              b.partitions()[static_cast<std::size_t>(i)])
        << "partition " << i << " differs from the fault-free run";
  }
}

/// Runs `make_op` fault-free and under `plan` (same budget, pool on), and
/// requires the faulty run to recover bit-identically: same bag, same
/// simulated clock, OK status. Returns the faulty run's metrics so callers
/// can assert on the real_io counters.
template <typename MakeOp>
Metrics ExpectRecoversIdentically(const MakeOp& make_op,
                                  const RealFaultPlan& plan,
                                  std::size_t budget = 512,
                                  RealIoPolicy policy = RealIoPolicy()) {
  Cluster clean(Config(true, budget));
  auto expected = make_op(&clean);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();

  ClusterConfig cfg = Config(true, budget);
  cfg.real_faults = plan;
  cfg.real_io = policy;
  Cluster faulty(cfg);
  auto got = make_op(&faulty);
  EXPECT_TRUE(faulty.ok()) << faulty.status().ToString();
  ExpectBitIdenticalBags(expected, got);
  EXPECT_EQ(clean.metrics().simulated_time_s, faulty.metrics().simulated_time_s);
  EXPECT_EQ(clean.metrics().spilled_bytes, faulty.metrics().spilled_bytes);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
  return faulty.metrics();
}

// --- Disarmed identity -----------------------------------------------------

TEST(ChaosEngineTest, DisarmedRunsKeepRealFaultCountersZero) {
  if (EnvFaultsForced()) GTEST_SKIP() << "MATRYOSHKA_REAL_FAULTS forced";
  Cluster c(Config(true, 512));
  (void)Count(GroupByKey(MakePairs(&c), 8));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.metrics().real_spill_events, 0);  // it really spilled ...
  EXPECT_EQ(c.metrics().real_io_faults_injected, 0);  // ... fault-free
  EXPECT_EQ(c.metrics().real_io_retries, 0);
  EXPECT_EQ(c.metrics().checksum_failures, 0);
  EXPECT_EQ(c.metrics().inmemory_fallbacks, 0);
  EXPECT_FALSE(c.failpoints()->armed());
}

TEST(ChaosEngineTest, EnvStormParsesRecoverableOnly) {
  const RealFaultPlan p = ParseRealFaultStormEnv("0.5:77");
  EXPECT_TRUE(p.active());
  EXPECT_EQ(p.seed, 77u);
  EXPECT_DOUBLE_EQ(p.write_eio_prob, 0.5);
  EXPECT_DOUBLE_EQ(p.read_eio_prob, 0.5);
  EXPECT_DOUBLE_EQ(p.short_write_prob, 0.5);
  EXPECT_DOUBLE_EQ(p.short_read_prob, 0.5);
  // Never the hard faults: whole OK-asserting suites run under this storm.
  EXPECT_DOUBLE_EQ(p.write_enospc_prob, 0.0);
  EXPECT_DOUBLE_EQ(p.corrupt_prob, 0.0);
  EXPECT_DOUBLE_EQ(p.alloc_failure_prob, 0.0);
  EXPECT_EQ(p.transient_duration, 1);
  EXPECT_FALSE(ParseRealFaultStormEnv("bogus").active());
  EXPECT_FALSE(ParseRealFaultStormEnv("").active());
}

// --- Recoverable faults ----------------------------------------------------

TEST(ChaosEngineTest, TransientWriteEioRecoversThroughRetry) {
  RealFaultPlan p;
  p.write_eio_prob = 1.0;  // every write site fails its first attempt
  p.transient_duration = 1;
  const Metrics m = ExpectRecoversIdentically(
      [](Cluster* c) { return Repartition(MakePairs(c), 5); }, p);
  EXPECT_GT(m.real_io_faults_injected, 0);
  EXPECT_GT(m.real_io_retries, 0);
  EXPECT_EQ(m.inmemory_fallbacks, 0);  // retry healed it, no fallback
  EXPECT_EQ(m.checksum_failures, 0);
}

TEST(ChaosEngineTest, TransientReadEioRecoversThroughRetry) {
  RealFaultPlan p;
  p.read_eio_prob = 1.0;
  p.transient_duration = 1;
  const Metrics m = ExpectRecoversIdentically(
      [](Cluster* c) { return GroupByKey(MakePairs(c), 8); }, p);
  EXPECT_GT(m.real_io_retries, 0);
  EXPECT_EQ(m.inmemory_fallbacks, 0);
}

TEST(ChaosEngineTest, ShortTransfersAlwaysComplete) {
  RealFaultPlan p;
  p.short_write_prob = 1.0;  // every pwrite/pread moves a partial buffer
  p.short_read_prob = 1.0;
  const Metrics m = ExpectRecoversIdentically(
      [](Cluster* c) { return GroupByKey(MakePairs(c), 8); }, p);
  EXPECT_GT(m.real_io_faults_injected, 0);
  EXPECT_EQ(m.inmemory_fallbacks, 0);  // the loops finish, nothing degrades
  EXPECT_EQ(m.checksum_failures, 0);
}

TEST(ChaosEngineTest, SlowIoChangesNothing) {
  RealFaultPlan p;
  p.slow_io_prob = 0.2;
  p.slow_io_ms = 1;
  const Metrics m = ExpectRecoversIdentically(
      [](Cluster* c) { return Repartition(MakePairs(c), 5); }, p,
      /*budget=*/4096);
  EXPECT_EQ(m.inmemory_fallbacks, 0);
  EXPECT_EQ(m.checksum_failures, 0);
}

// --- Graceful degradation --------------------------------------------------

TEST(ChaosEngineTest, EnospcFallsBackInMemoryBitIdentically) {
  RealFaultPlan p;
  p.write_enospc_prob = 1.0;  // the disk is full from the first write
  const Metrics m = ExpectRecoversIdentically(
      [](Cluster* c) {
        return ReduceByKey(
            MakePairs(c), [](int64_t a, int64_t b) { return a + b; }, 8);
      },
      p);
  EXPECT_GT(m.inmemory_fallbacks, 0);
  EXPECT_GT(m.real_io_faults_injected, 0);
}

TEST(ChaosEngineTest, EnospcFailsTypedWithoutFallback) {
  ClusterConfig cfg = Config(true, 512);
  cfg.real_faults.write_enospc_prob = 1.0;
  cfg.real_io.fallback_in_memory = false;
  Cluster c(cfg);
  (void)Count(Repartition(MakePairs(&c), 5));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsResourceExhausted()) << c.status().ToString();
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosEngineTest, EioOutlastingRetriesFallsBack) {
  RealFaultPlan p;
  p.write_eio_prob = 1.0;
  p.transient_duration = 100;  // outlasts any sane retry budget
  RealIoPolicy policy;
  policy.max_io_retries = 2;
  const Metrics m = ExpectRecoversIdentically(
      [](Cluster* c) { return Repartition(MakePairs(c), 5); }, p,
      /*budget=*/512, policy);
  EXPECT_GT(m.inmemory_fallbacks, 0);
}

TEST(ChaosEngineTest, EioOutlastingRetriesFailsTypedWithoutFallback) {
  ClusterConfig cfg = Config(true, 512);
  cfg.real_faults.write_eio_prob = 1.0;
  cfg.real_faults.transient_duration = 100;
  cfg.real_io.max_io_retries = 2;
  cfg.real_io.fallback_in_memory = false;
  Cluster c(cfg);
  (void)Count(Repartition(MakePairs(&c), 5));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsIOError()) << c.status().ToString();
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosEngineTest, CorruptionDetectedAndFallsBackBitIdentically) {
  RealFaultPlan p;
  p.corrupt_prob = 1.0;  // every written run gets one byte flipped on disk
  const Metrics m = ExpectRecoversIdentically(
      [](Cluster* c) { return Repartition(MakePairs(c), 5); }, p);
  EXPECT_GT(m.checksum_failures, 0);  // caught, never silent wrong data
  EXPECT_GT(m.inmemory_fallbacks, 0);
}

TEST(ChaosEngineTest, AllocFailureNeverFallsBack) {
  // Falling back to an unbudgeted in-memory run is the cure for a BROKEN
  // DISK, not for allocation failure — more memory use cannot fix OOM.
  ClusterConfig cfg = Config(true, 512);
  cfg.real_faults.alloc_failure_prob = 1.0;
  cfg.real_io.fallback_in_memory = true;  // must be ignored for OOM
  Cluster c(cfg);
  (void)Count(Repartition(MakePairs(&c), 5));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsOutOfMemory()) << c.status().ToString();
  EXPECT_EQ(c.metrics().inmemory_fallbacks, 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosEngineTest, NoSpillFileLeaksUnderHardFaults) {
  for (int which = 0; which < 3; ++which) {
    ClusterConfig cfg = Config(true, 512);
    if (which == 0) cfg.real_faults.write_enospc_prob = 0.05;
    if (which == 1) cfg.real_faults.corrupt_prob = 0.05;
    if (which == 2) cfg.real_faults.alloc_failure_prob = 0.05;
    cfg.real_io.fallback_in_memory = false;
    {
      Cluster c(cfg);
      auto grouped = GroupByKey(MakePairs(&c), 8);
      auto joined = RepartitionJoin(MakePairs(&c), MakePairs(&c), 8);
      (void)grouped;
      (void)joined;
    }
    EXPECT_EQ(SpillFile::LiveCount(), 0) << "fault arm " << which;
  }
}

// --- Determinism of the injection itself -----------------------------------

TEST(ChaosEngineTest, FaultDrawsAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    ClusterConfig cfg = Config(true, 512);
    cfg.real_faults = RecoverableStorm(seed);
    Cluster c(cfg);
    (void)Count(GroupByKey(MakePairs(&c), 8));
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.metrics();
  };
  const Metrics a = run(7);
  const Metrics b = run(7);
  EXPECT_GT(a.real_io_faults_injected, 0);
  EXPECT_EQ(a.real_io_faults_injected, b.real_io_faults_injected);
  EXPECT_EQ(a.real_io_retries, b.real_io_retries);
  EXPECT_EQ(a.checksum_failures, b.checksum_failures);
  EXPECT_EQ(a.inmemory_fallbacks, b.inmemory_fallbacks);
}

TEST(ChaosEngineTest, FaultCountersIdenticalAcrossPoolSizes) {
  // The draws are pure functions of each worker's own stream — the pool
  // must not move a single counter.
  auto run = [](bool parallel) {
    ClusterConfig cfg = Config(parallel, 512);
    cfg.real_faults = RecoverableStorm();
    Cluster c(cfg);
    (void)Count(ReduceByKey(
        MakePairs(&c), [](int64_t a, int64_t b) { return a + b; }, 8));
    (void)Count(GroupByKey(MakePairs(&c), 8));
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.metrics();
  };
  const Metrics serial = run(false);
  const Metrics parallel = run(true);
  EXPECT_GT(serial.real_io_faults_injected, 0);
  EXPECT_EQ(serial.real_io_faults_injected, parallel.real_io_faults_injected);
  EXPECT_EQ(serial.real_io_retries, parallel.real_io_retries);
  EXPECT_EQ(serial.checksum_failures, parallel.checksum_failures);
  EXPECT_EQ(serial.inmemory_fallbacks, parallel.inmemory_fallbacks);
}

TEST(ChaosEngineTest, StormRecoveryBitIdenticalAcrossBudgetsAndPools) {
  // The acceptance sweep: a mixed recoverable storm over budgets
  // {1, 4K, 16M} x pool off/on must reproduce the fault-free unbounded
  // run's bags and simulated metrics exactly.
  Cluster clean(Config(true, 0));
  auto expected = GroupByKey(MakePairs(&clean), 8);
  ASSERT_TRUE(clean.ok());
  for (std::size_t budget :
       {std::size_t{1}, std::size_t{4096}, std::size_t{16} << 20}) {
    for (bool parallel : {false, true}) {
      ClusterConfig cfg = Config(parallel, budget);
      cfg.real_faults = RecoverableStorm();
      cfg.real_faults.write_enospc_prob = 0.05;  // plus a degrading fault
      Cluster c(cfg);
      auto got = GroupByKey(MakePairs(&c), 8);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      ExpectBitIdenticalBags(expected, got);
      EXPECT_EQ(clean.metrics().simulated_time_s,
                c.metrics().simulated_time_s)
          << "budget " << budget << " parallel " << parallel;
      EXPECT_EQ(SpillFile::LiveCount(), 0);
    }
  }
}

TEST(ChaosEngineTest, DriverRetryMovesPastStormEpoch) {
  // storm_epochs = 1: the first attempt deterministically fails with
  // kIOError (persistent EIO, no fallback); the driver retry bumps the
  // fault epoch and finds calm weather.
  Cluster clean(Config(true, 512));
  auto expected = Collect(Repartition(MakePairs(&clean), 5));
  ASSERT_TRUE(clean.ok());

  ClusterConfig cfg = Config(true, 512);
  cfg.real_faults.write_eio_prob = 1.0;
  cfg.real_faults.transient_duration = 100;
  cfg.real_faults.storm_epochs = 1;
  cfg.real_io.max_io_retries = 2;
  cfg.real_io.fallback_in_memory = false;
  cfg.recovery.max_driver_retries = 2;
  cfg.recovery.driver_backoff_s = 0.1;
  Cluster c(cfg);
  std::vector<std::pair<int64_t, int64_t>> got;
  const Status st = RunWithRecovery(&c, [&](int /*attempt*/) {
    got = Collect(Repartition(MakePairs(&c), 5));
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(c.metrics().driver_retries, 0);
  EXPECT_GT(c.metrics().real_io_faults_injected, 0);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosEngineTest, ResetRearmsFaultEpoch) {
  ClusterConfig cfg = Config(true, 512);
  cfg.real_faults.write_eio_prob = 1.0;
  cfg.real_faults.transient_duration = 100;
  cfg.real_faults.storm_epochs = 1;
  cfg.real_io.max_io_retries = 1;
  cfg.real_io.fallback_in_memory = false;
  cfg.recovery.max_driver_retries = 1;
  cfg.recovery.driver_backoff_s = 0.1;
  Cluster c(cfg);
  // The driver retry bumps the epoch out of the storm and succeeds ...
  const Status st = RunWithRecovery(
      &c, [&](int /*attempt*/) { (void)Count(Repartition(MakePairs(&c), 5)); });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(c.failpoints()->epoch(), 0);
  // ... and Reset must re-enter epoch 0: the storm is back.
  c.Reset();
  EXPECT_EQ(c.failpoints()->epoch(), 0);
  (void)Count(Repartition(MakePairs(&c), 5));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsIOError()) << c.status().ToString();
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

// --- Kernel-level checks ---------------------------------------------------

TEST(ChaosKernelTest, SpillFileChecksumVerifyCatchesFlippedByte) {
  RealFaultPlan plan;
  plan.corrupt_prob = 1.0;
  FailpointRegistry fp;
  fp.Arm(plan, RealIoPolicy());
  SpillFile f;
  f.Arm(&fp, /*stream_id=*/3);
  const std::string run = "the bytes the caller hands to pwrite";
  const uint64_t checksum = HashBytes(run.data(), run.size());
  uint64_t offset = 0;
  SpillStats stats;
  ASSERT_TRUE(f.Write(run, &offset, &stats).ok());
  EXPECT_GT(stats.io_faults_injected, 0);  // the flip was injected
  std::string out;
  const Status st = f.ReadRun(offset, run.size(), checksum, &out, &stats);
  EXPECT_TRUE(st.IsDataCorruption()) << st.ToString();
  EXPECT_GT(stats.checksum_failures, 0);
  // The plain read path hands back the corrupted bytes — that is exactly
  // why every merge-on-read goes through ReadRun.
  std::string raw;
  ASSERT_TRUE(f.Read(offset, run.size(), &raw, &stats).ok());
  EXPECT_NE(raw, run);
}

TEST(ChaosKernelTest, AggregatorEnospcDrainPreservesFoldOrder) {
  // Non-associative float folding: the disk-down drain (chunks, then
  // pending, then live) must reproduce first-occurrence order exactly.
  std::vector<std::pair<int64_t, double>> stream;
  for (int64_t i = 0; i < 2000; ++i) {
    stream.emplace_back(i % 97, 1.0 / static_cast<double>(i + 1));
  }
  auto init = [](double&& v) { return v; };
  auto absorb = [](double& acc, double&& v) { acc = acc - v; };
  auto growth = [](const double&) { return std::size_t{0}; };
  using Agg = external::BoundedAggregator<int64_t, double, double,
                                          decltype(init), decltype(absorb),
                                          decltype(growth)>;
  SpillStats clean_stats;
  Agg unbounded(static_cast<std::size_t>(-1), init, absorb, growth,
                clean_stats);
  for (const auto& [k, v] : stream) unbounded.Feed(k, v);
  const auto expected = unbounded.Finish();
  ASSERT_TRUE(unbounded.status().ok());

  RealFaultPlan plan;
  plan.write_enospc_prob = 1.0;
  FailpointRegistry fp;
  fp.Arm(plan, RealIoPolicy());  // fallback_in_memory defaults true
  SpillStats stats;
  Agg bounded(/*quota=*/1, init, absorb, growth, stats, &fp,
              /*stream_id=*/0);
  for (const auto& [k, v] : stream) bounded.Feed(k, v);
  const auto got = bounded.Finish();
  ASSERT_TRUE(bounded.status().ok()) << bounded.status().ToString();
  EXPECT_EQ(got, expected);
  EXPECT_GT(stats.inmemory_fallbacks, 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosKernelTest, AggregatorCorruptionOnMergeIsTyped) {
  // Corruption is discovered at Finish, after the writes were consumed:
  // there is nothing safe to fall back to, so the status is always typed.
  std::vector<std::pair<int64_t, double>> stream;
  for (int64_t i = 0; i < 500; ++i) {
    stream.emplace_back(i % 31, static_cast<double>(i));
  }
  auto init = [](double&& v) { return v; };
  auto absorb = [](double& acc, double&& v) { acc = acc + v; };
  auto growth = [](const double&) { return std::size_t{0}; };
  RealFaultPlan plan;
  plan.corrupt_prob = 1.0;
  FailpointRegistry fp;
  fp.Arm(plan, RealIoPolicy());
  SpillStats stats;
  external::BoundedAggregator<int64_t, double, double, decltype(init),
                              decltype(absorb), decltype(growth)>
      agg(/*quota=*/1, init, absorb, growth, stats, &fp, /*stream_id=*/0);
  for (const auto& [k, v] : stream) agg.Feed(k, v);
  (void)agg.Finish();
  EXPECT_TRUE(agg.status().IsDataCorruption()) << agg.status().ToString();
  EXPECT_GT(stats.checksum_failures, 0);
}

// --- ThreadPool exception safety -------------------------------------------

TEST(ChaosThreadPoolTest, ParallelForRethrowsBodyExceptionOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 64,
                  [](std::size_t i) {
                    if (i == 13) throw std::runtime_error("body 13 failed");
                  }),
      std::runtime_error);
  // The barrier completed and the pool survived: it still runs work.
  std::atomic<int> ran{0};
  ParallelFor(&pool, 32, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ChaosThreadPoolTest, ParallelForFailureSkipsRemainingBodies) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    ParallelFor(&pool, 256, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("first body failed");
      ran.fetch_add(1);
    });
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first body failed");
  }
  // Some bodies may have been in flight, but the failure stopped the loop
  // from running all of them.
  EXPECT_LT(ran.load(), 255);
}

TEST(ChaosThreadPoolTest, SubmittedTaskExceptionIsSwallowedAndCounted) {
  const int64_t before = ThreadPool::UncaughtTaskExceptions();
  {
    ThreadPool pool(2);
    pool.Submit([] { throw std::runtime_error("fire-and-forget boom"); });
    pool.Submit([] { throw 42; });  // non-std exceptions too
    pool.WaitIdle();
  }
  EXPECT_EQ(ThreadPool::UncaughtTaskExceptions(), before + 2);
}

TEST(ChaosThreadPoolTest, ThrowingUdfFailsProgramTyped) {
  // A user lambda that throws inside a parallel operator surfaces as a
  // typed kInternal failure on the cluster — not std::terminate, and not a
  // hung barrier.
  Cluster c(Config(true, 0));
  auto bag = Map(MakePairs(&c), [](const std::pair<int64_t, int64_t>& kv) {
    if (kv.first == 64) throw std::runtime_error("udf rejected row");
    return kv.first;
  });
  (void)Count(bag);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInternal);
  EXPECT_NE(c.status().message().find("udf rejected row"), std::string::npos)
      << c.status().message();
}

}  // namespace
}  // namespace matryoshka::engine

// --- Serving under real faults ---------------------------------------------

namespace matryoshka::serve {
namespace {

using engine::ClusterConfig;
using engine::external::SpillFile;

ClusterConfig ServeEngineConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = true;
  cfg.real_memory_budget_bytes = 512;  // every request really spills
  return cfg;
}

PlanSpec SumByKeySpec() {
  PlanSpec spec;
  spec.name = "sum_by_key";
  spec.description = "keyed sum over synthetic rows";
  spec.body = [](engine::Cluster* c, const PlanParams& params) {
    const int64_t mod = params.GetInt("mod", 97);
    std::vector<std::pair<int64_t, int64_t>> kv;
    for (int64_t i = 0; i < 3000; ++i) kv.emplace_back(i % mod, i % 13);
    auto bag = engine::Parallelize(c, std::move(kv), 8);
    auto reduced = engine::ReduceByKey(
        bag, [](int64_t a, int64_t b) { return a + b; }, 8);
    return CollectOutput(reduced);
  };
  return spec;
}

ServeRequest Req(const std::string& plan) {
  ServeRequest req;
  req.plan = plan;
  return req;
}

PlanSpec ThrowingSpec() {
  PlanSpec spec;
  spec.name = "throwing_plan";
  spec.description = "plan body that throws";
  spec.body = [](engine::Cluster*, const PlanParams&) -> PlanOutput {
    throw std::runtime_error("plan body exploded");
  };
  return spec;
}

TEST(ChaosServingTest, RetriesIoFailuresWithFreshEpoch) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());

  // The fault-free answer, served once without any storm.
  ServingConfig clean_cfg;
  clean_cfg.cluster = ServeEngineConfig();
  clean_cfg.max_in_flight = 1;
  PlanOutput expected;
  {
    ServingDriver driver(&registry, clean_cfg);
    ServeResponse resp = driver.Execute(Req("sum_by_key"));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    expected = resp.output;
  }

  // Epoch 0 is a persistent-EIO storm with no fallback and no engine-level
  // recovery: the first attempt deterministically fails with kIOError, the
  // serving retry re-runs in epoch 1 and succeeds.
  ServingConfig cfg = clean_cfg;
  cfg.cluster.real_faults.write_eio_prob = 1.0;
  cfg.cluster.real_faults.transient_duration = 100;
  cfg.cluster.real_faults.storm_epochs = 1;
  cfg.cluster.real_io.max_io_retries = 1;
  cfg.cluster.real_io.fallback_in_memory = false;
  cfg.cluster.recovery.max_driver_retries = 0;
  cfg.real_fault_retries = 2;
  ServingDriver driver(&registry, cfg);
  ServeResponse resp = driver.Execute(Req("sum_by_key"));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.output, expected);

  const ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.real_fault_retries, 1);
  EXPECT_EQ(stats.io_errors, 0);  // the FINAL status was OK
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosServingTest, ExhaustedRetriesSurfaceTypedIoError) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg;
  cfg.cluster = ServeEngineConfig();
  cfg.cluster.real_faults.write_eio_prob = 1.0;
  cfg.cluster.real_faults.transient_duration = 100;  // storm never ends
  cfg.cluster.real_io.max_io_retries = 1;
  cfg.cluster.real_io.fallback_in_memory = false;
  cfg.cluster.recovery.max_driver_retries = 0;
  cfg.max_in_flight = 1;
  cfg.real_fault_retries = 2;
  ServingDriver driver(&registry, cfg);
  ServeResponse resp = driver.Execute(Req("sum_by_key"));
  EXPECT_TRUE(resp.status.IsIOError()) << resp.status.ToString();
  const ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.real_fault_retries, 2);  // every retry was spent
  EXPECT_EQ(stats.io_errors, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosServingTest, ShedsResourceExhaustionWithoutRetry) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg;
  cfg.cluster = ServeEngineConfig();
  cfg.cluster.real_faults.write_enospc_prob = 1.0;
  cfg.cluster.real_io.fallback_in_memory = false;
  cfg.cluster.recovery.max_driver_retries = 0;
  cfg.max_in_flight = 1;
  cfg.real_fault_retries = 3;  // must NOT be spent on a full disk
  ServingDriver driver(&registry, cfg);
  ServeResponse resp = driver.Execute(Req("sum_by_key"));
  EXPECT_TRUE(resp.status.IsResourceExhausted()) << resp.status.ToString();
  EXPECT_FALSE(resp.rejected);  // executed and shed, not turned away
  const ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.real_fault_retries, 0);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(ChaosServingTest, AggregatesRealFaultCountersAcrossRequests) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg;
  cfg.cluster = ServeEngineConfig();
  cfg.cluster.real_faults.write_eio_prob = 0.3;
  cfg.cluster.real_faults.short_write_prob = 0.5;
  cfg.max_in_flight = 2;
  cfg.cache_entries = 0;  // force every request to really execute
  ServingDriver driver(&registry, cfg);
  std::vector<std::shared_ptr<ServeTicket>> tickets;
  for (int i = 0; i < 4; ++i) {
    ServeRequest req;
    req.plan = "sum_by_key";
    req.params.Set("mod", lang::Value(int64_t{31 + i}));
    tickets.push_back(driver.Submit(std::move(req)));
  }
  for (auto& t : tickets) {
    EXPECT_TRUE(t->Wait().status.ok()) << t->Wait().status.ToString();
    EXPECT_GT(t->Wait().metrics.real_io_faults_injected, 0);
  }
  const ServingDriver::Stats stats = driver.GetStats();
  EXPECT_GT(stats.aggregate.real_io_faults_injected, 0);
  EXPECT_GT(stats.aggregate.real_io_retries, 0);
  EXPECT_GT(stats.aggregate.real_spill_events, 0);
  EXPECT_EQ(stats.failed, 0);
}

TEST(ChaosServingTest, PlanBodyExceptionFailsOneRequestTyped) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(ThrowingSpec()).ok());
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg;
  cfg.cluster = ServeEngineConfig();
  cfg.max_in_flight = 2;
  ServingDriver driver(&registry, cfg);
  ServeResponse bad = driver.Execute(Req("throwing_plan"));
  EXPECT_EQ(bad.status.code(), StatusCode::kInternal)
      << bad.status.ToString();
  EXPECT_NE(bad.status.message().find("plan body exploded"),
            std::string::npos);
  // The worker survived; the next request on the same driver is healthy.
  ServeResponse good = driver.Execute(Req("sum_by_key"));
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
}

TEST(ChaosServingTest, ShutdownDrainsInFlightRequestsUnderStorm) {
  // Destroying the driver with a queue full of spilling, fault-absorbing
  // requests must complete every ticket and leak no spill files.
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  std::vector<std::shared_ptr<ServeTicket>> tickets;
  {
    ServingConfig cfg;
    cfg.cluster = ServeEngineConfig();
    cfg.cluster.real_faults.write_eio_prob = 0.3;
    cfg.cluster.real_faults.read_eio_prob = 0.3;
    cfg.cluster.real_faults.short_write_prob = 0.5;
    cfg.max_in_flight = 3;
    cfg.cache_entries = 0;
    ServingDriver driver(&registry, cfg);
    for (int i = 0; i < 12; ++i) {
      ServeRequest req;
      req.plan = "sum_by_key";
      req.params.Set("mod", lang::Value(int64_t{17 + i}));
      req.tenant = i % 2 == 0 ? "a" : "b";
      tickets.push_back(driver.Submit(std::move(req)));
    }
    // No Drain, no Wait: the destructor must handle the in-flight storm.
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i]->Ready()) << "ticket " << i << " never completed";
    EXPECT_TRUE(tickets[i]->Wait().status.ok())
        << tickets[i]->Wait().status.ToString();
  }
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

}  // namespace
}  // namespace matryoshka::serve
