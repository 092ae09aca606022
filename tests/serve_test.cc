// The serving determinism suite: locks the plan-serving driver's contract
// (src/serve/serving_driver.h).
//
//  - Registry: registration, lookup, duplicate/unknown/invalid names.
//  - Admission control: the queue bound is exact, rejections carry
//    kResourceExhausted, and a full queue never blocks Submit.
//  - Deadlines: a request that outruns its (simulated-clock) deadline ends
//    in kDeadlineExceeded without poisoning other in-flight requests.
//  - Fairness: queued requests drain round-robin across tenants.
//  - THE ISOLATION CONTRACT: a request executed concurrently under load is
//    bit-identical — data, partition order, key_partitions, full Metrics,
//    exported trace — to the same request executed alone. Checked clean,
//    under an active FaultPlan, and with fusion on/off (chain depth 1).
//  - Memo cache: a hit is byte-identical to a recompute, hit/miss/eviction
//    counters are exact, a disabled cache leaves the engine byte-identical,
//    and per-request responses never carry cache counters.
//  - Bag::Force()'s driver-thread contract: off-thread Force on a pending
//    bag CHECK-fails with an actionable message; BindDriverThread hands a
//    cluster to another thread legitimately.
//
// The whole suite is TSan-clean (the serve-tsan preset runs it): real
// concurrency is exercised with the shared pool on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/iterate.h"
#include "engine/ops.h"
#include "engine/shuffle.h"
#include "lang/expr.h"
#include "serve/memo_cache.h"
#include "serve/plan.h"
#include "serve/registry.h"
#include "serve/serving_driver.h"

#if defined(__SANITIZE_THREAD__)
#define MATRYOSHKA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MATRYOSHKA_TSAN 1
#endif
#endif

namespace matryoshka::serve {
namespace {

using engine::ClusterConfig;
using engine::Metrics;

// --- shared fixtures -------------------------------------------------------

ClusterConfig EngineConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = true;
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

/// Fusion off means no two narrow ops share a pass: a chain depth of 1.
ClusterConfig WithFusion(ClusterConfig cfg, bool enabled) {
  if (!enabled) cfg.fusion.max_chain_depth = 1;
  return cfg;
}

ServingConfig BaseServing(ClusterConfig engine_cfg) {
  ServingConfig cfg;
  cfg.cluster = engine_cfg;
  cfg.max_in_flight = 4;
  cfg.pool_threads = 4;
  return cfg;
}

/// "sum_by_key": a typed src/core-style plan. Params: mod (key space),
/// rows (input size). Deterministic keyed reduction ending in a collect.
PlanSpec SumByKeySpec() {
  PlanSpec spec;
  spec.name = "sum_by_key";
  spec.description = "keyed sum over synthetic rows";
  spec.body = [](engine::Cluster* c, const PlanParams& params) {
    const int64_t mod = params.GetInt("mod", 7);
    const int64_t rows = params.GetInt("rows", 2000);
    std::vector<std::pair<int64_t, int64_t>> kv;
    kv.reserve(static_cast<std::size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) kv.emplace_back(i % mod, i % 13);
    auto bag = engine::Parallelize(c, std::move(kv), 8);
    auto mapped = engine::Map(bag, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first, p.second + 1);
    });
    auto reduced = engine::ReduceByKey(
        mapped, [](int64_t a, int64_t b) { return a + b; }, 8);
    return CollectOutput(reduced);
  };
  return spec;
}

/// A lang-program plan: doubles the fixed source rows and unions in the
/// "boost" request parameter (bound as a single-element source bag).
Result<PlanSpec> DoublePlusBoostSpec() {
  lang::Program p;
  p.stmts.push_back(
      {"doubled",
       lang::Map(lang::Source("data"),
                 lang::Lam("x", lang::BinOp(lang::BinOpKind::kMul,
                                            lang::Var("x"),
                                            lang::Lit(lang::Value(2)))))});
  p.stmts.push_back(
      {"out", lang::UnionOf(lang::Var("doubled"), lang::Source("boost"))});
  p.result = "out";

  auto rows = std::make_shared<std::vector<lang::Value>>();
  for (int64_t i = 1; i <= 100; ++i) rows->emplace_back(i);
  return MakeLangPlanSpec("double_plus_boost", p,
                          {LangSource{"data", rows, 4}},
                          "2x over fixed rows, plus the boost param");
}

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
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
}

void ExpectSameResponse(const ServeResponse& a, const ServeResponse& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.output, b.output);
  ExpectSameMetrics(a.metrics, b.metrics);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

// --- registry --------------------------------------------------------------

TEST(ServingRegistryTest, RegisterLookupAndNames) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  EXPECT_EQ(registry.size(), 1u);

  Result<const PlanSpec*> spec = registry.Lookup("sum_by_key");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*spec)->name, "sum_by_key");
  EXPECT_TRUE((*spec)->cacheable);

  Result<PlanSpec> lang_spec = DoublePlusBoostSpec();
  ASSERT_TRUE(lang_spec.ok());
  ASSERT_TRUE(registry.Register(std::move(lang_spec).value()).ok());
  EXPECT_EQ(registry.PlanNames(),
            (std::vector<std::string>{"double_plus_boost", "sum_by_key"}));
}

TEST(ServingRegistryTest, DuplicateNameFails) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  Status dup = registry.Register(SumByKeySpec());
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.message().find("already registered"), std::string::npos);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ServingRegistryTest, UnknownLookupNamesTheRegisteredPlans) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  Result<const PlanSpec*> missing = registry.Lookup("no_such_plan");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("sum_by_key"),
            std::string::npos);
}

TEST(ServingRegistryTest, EmptyNameAndNullBodyRejected) {
  PlanRegistry registry;
  PlanSpec nameless;
  nameless.body = [](engine::Cluster*, const PlanParams&) {
    return PlanOutput{};
  };
  EXPECT_FALSE(registry.Register(std::move(nameless)).ok());

  PlanSpec bodyless;
  bodyless.name = "bodyless";
  EXPECT_FALSE(registry.Register(std::move(bodyless)).ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ServingRegistryTest, ParamsFingerprintIsOrderIndependent) {
  PlanParams ab;
  ab.Set("a", lang::Value(int64_t{1})).Set("b", lang::Value(std::string("x")));
  PlanParams ba;
  ba.Set("b", lang::Value(std::string("x"))).Set("a", lang::Value(int64_t{1}));
  EXPECT_EQ(ab.Fingerprint(), ba.Fingerprint());

  PlanParams other = ab;
  other.Set("a", lang::Value(int64_t{2}));
  EXPECT_NE(ab.Fingerprint(), other.Fingerprint());
}

// --- driver basics ---------------------------------------------------------

TEST(ServingDriverTest, ServesAPlanAndMatchesDirectExecution) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingDriver driver(&registry, BaseServing(EngineConfig()));

  ServeRequest req;
  req.plan = "sum_by_key";
  req.params.Set("mod", lang::Value(int64_t{5}));
  ServeResponse resp = driver.Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.message();
  EXPECT_FALSE(resp.rejected);
  EXPECT_GT(resp.output.NumRows(), 0);
  EXPECT_GT(resp.metrics.jobs, 0);

  // The same plan body on a plain standalone cluster must agree exactly.
  engine::Cluster direct(EngineConfig());
  PlanOutput expected = SumByKeySpec().body(&direct, req.params);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(resp.output, expected);
  ExpectSameMetrics(resp.metrics, direct.metrics());
}

TEST(ServingDriverTest, ParameterizationChangesTheResult) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingDriver driver(&registry, BaseServing(EngineConfig()));

  ServeRequest small;
  small.plan = "sum_by_key";
  small.params.Set("mod", lang::Value(int64_t{3}));
  ServeRequest large;
  large.plan = "sum_by_key";
  large.params.Set("mod", lang::Value(int64_t{31}));

  ServeResponse a = driver.Execute(small);
  ServeResponse b = driver.Execute(large);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_NE(a.output, b.output);
}

TEST(ServingDriverTest, UnknownPlanCompletesImmediatelyWithError) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingDriver driver(&registry, BaseServing(EngineConfig()));

  ServeRequest req;
  req.plan = "nope";
  ServeResponse resp = driver.Execute(req);
  EXPECT_FALSE(resp.status.ok());
  EXPECT_TRUE(resp.rejected);
  ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.accepted, 0);
}

TEST(ServingDriverTest, LangProgramPlanBindsRequestParams) {
  PlanRegistry registry;
  Result<PlanSpec> spec = DoublePlusBoostSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  ASSERT_TRUE(registry.Register(std::move(spec).value()).ok());
  ServingDriver driver(&registry, BaseServing(EngineConfig()));

  ServeRequest req;
  req.plan = "double_plus_boost";
  req.params.Set("boost", lang::Value(int64_t{-17}));
  ServeResponse resp = driver.Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.message();

  ASSERT_EQ(resp.output.partitions.size(), 1u);
  std::vector<lang::Value> rows = resp.output.partitions[0];
  ASSERT_EQ(rows.size(), 101u);  // 100 doubled rows + the boost param
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows.front(), lang::Value(int64_t{-17}));
  EXPECT_EQ(rows.back(), lang::Value(int64_t{200}));
}

/// The bounce-rate program (Listing 1) over the "visits" source, with the
/// request's what-if visit (param "whatif", a (day, ip) tuple) unioned in.
Result<PlanSpec> WhatIfBounceRateSpec() {
  using lang::BinOpKind;
  lang::Program p;
  p.stmts.push_back(
      {"log", lang::UnionOf(lang::Source("visits"), lang::Source("whatif"))});
  p.stmts.push_back({"perDay", lang::GroupByKey(lang::Var("log"))});
  std::vector<lang::Stmt> udf;
  udf.push_back(
      {"countsPerIP",
       lang::ReduceByKey(
           lang::Map(lang::Var("group"),
                     lang::Lam("ip", lang::MakeTuple({lang::Var("ip"),
                                                      lang::Lit(1)}))),
           lang::Lam2("a", "b", lang::BinOp(BinOpKind::kAdd, lang::Var("a"),
                                            lang::Var("b"))))});
  udf.push_back(
      {"numBounces",
       lang::Count(lang::Filter(
           lang::Var("countsPerIP"),
           lang::Lam("c", lang::BinOp(BinOpKind::kEq,
                                      lang::Field(lang::Var("c"), 1),
                                      lang::Lit(1)))))});
  udf.push_back({"numTotal", lang::Count(lang::Distinct(lang::Var("group")))});
  p.stmts.push_back(
      {"rates",
       lang::Map(lang::Var("perDay"),
                 lang::LamProgram({"day", "group"}, std::move(udf),
                                  lang::BinOp(BinOpKind::kDiv,
                                              lang::Var("numBounces"),
                                              lang::Var("numTotal"))))});
  p.result = "rates";

  auto rows = std::make_shared<std::vector<lang::Value>>();
  for (int64_t i = 0; i < 200; ++i) {
    rows->push_back(lang::Value::MakeTuple(
        {lang::Value(i % 4), lang::Value(i % 37)}));
  }
  return MakeLangPlanSpec("whatif_bounce_rate", p,
                          {LangSource{"visits", rows, 4}});
}

TEST(ServingLangPlanTest, WrongShapedParamFailsOnlyItsRequest) {
  PlanRegistry registry;
  Result<PlanSpec> spec = WhatIfBounceRateSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  ASSERT_TRUE(registry.Register(std::move(spec).value()).ok());
  ServingDriver driver(&registry, BaseServing(EngineConfig()));

  // A bare int where the plan expects a (day, ip) row.
  ServeRequest bad;
  bad.plan = "whatif_bounce_rate";
  bad.params.Set("whatif", lang::Value(int64_t{5}));
  ServeResponse failed = driver.Execute(bad);
  ASSERT_FALSE(failed.status.ok());
  EXPECT_NE(failed.status.message().find("not a tuple"), std::string::npos)
      << failed.status.ToString();

  ServeRequest good;
  good.plan = "whatif_bounce_rate";
  good.params.Set("whatif", lang::Value::MakeTuple({lang::Value(int64_t{0}),
                                                    lang::Value(int64_t{99})}));
  ServeResponse served = driver.Execute(good);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  ASSERT_EQ(served.output.partitions.size(), 1u);
  EXPECT_EQ(served.output.partitions[0].size(), 4u);  // one rate per day
  EXPECT_EQ(driver.GetStats().failed, 1);
}

// --- admission control -----------------------------------------------------

/// A plan that parks until released; lets tests fill the queue / pin the
/// single worker deterministically. Not cacheable (each run must execute).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void AwaitEntered(int n) {
    while (entered.load() < n) std::this_thread::yield();
  }
};

PlanSpec GatedSpec(Gate* gate, std::vector<std::string>* order = nullptr,
                   std::mutex* order_mu = nullptr) {
  PlanSpec spec;
  spec.name = "gated";
  spec.cacheable = false;
  spec.body = [gate, order, order_mu](engine::Cluster* c,
                                      const PlanParams& params) {
    gate->entered.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [gate] { return gate->open; });
    }
    if (order != nullptr) {
      std::lock_guard<std::mutex> lock(*order_mu);
      order->push_back(params.GetString("id", "?"));
    }
    auto bag = engine::Parallelize(c, std::vector<int64_t>{1, 2, 3}, 2);
    return CollectOutput(bag);
  };
  return spec;
}

TEST(ServingAdmissionTest, QueueBoundRejectsWithResourceExhausted) {
  Gate gate;
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(GatedSpec(&gate)).ok());

  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.max_in_flight = 1;
  cfg.max_queue_depth = 2;
  ServingDriver driver(&registry, cfg);

  ServeRequest req;
  req.plan = "gated";
  auto executing = driver.Submit(req);
  gate.AwaitEntered(1);  // the worker is pinned, nothing else can start

  auto queued1 = driver.Submit(req);
  auto queued2 = driver.Submit(req);
  auto over = driver.Submit(req);  // depth 2 reached -> rejected
  ASSERT_TRUE(over->Ready());
  const ServeResponse& rejected = over->Wait();
  EXPECT_TRUE(rejected.rejected);
  EXPECT_TRUE(rejected.status.IsResourceExhausted());
  EXPECT_FALSE(queued1->Ready());

  gate.Release();
  EXPECT_TRUE(executing->Wait().status.ok());
  EXPECT_TRUE(queued1->Wait().status.ok());
  EXPECT_TRUE(queued2->Wait().status.ok());

  ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 3);
}

TEST(ServingAdmissionTest, ManyConcurrentRequestsAllComplete) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.max_queue_depth = 100;
  cfg.cache_entries = 0;  // force every request through the engine
  ServingDriver driver(&registry, cfg);

  std::vector<std::shared_ptr<ServeTicket>> tickets;
  for (int i = 0; i < 50; ++i) {
    ServeRequest req;
    req.plan = "sum_by_key";
    req.params.Set("mod", lang::Value(int64_t{3 + (i % 5)}));
    tickets.push_back(driver.Submit(req));
  }
  for (auto& t : tickets) EXPECT_TRUE(t->Wait().status.ok());
  ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.completed, 50);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.rejected, 0);
}

// --- deadlines -------------------------------------------------------------

/// A plan whose simulated cost is astronomically high (weight 1e9): runs in
/// microseconds of real time but blows any simulated deadline.
PlanSpec ExpensiveSpec() {
  PlanSpec spec;
  spec.name = "expensive";
  spec.cacheable = false;
  spec.body = [](engine::Cluster* c, const PlanParams&) {
    auto bag = engine::Parallelize(
        c, std::vector<int64_t>(1000, int64_t{1}), 8);
    auto heavy =
        engine::Map(bag, [](int64_t x) { return x + 1; }, /*weight=*/1e9);
    return CollectOutput(heavy);
  };
  return spec;
}

TEST(ServingDeadlineTest, DeadlineExceededDoesNotPoisonOtherRequests) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(ExpensiveSpec()).ok());
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.cache_entries = 0;
  ServingDriver driver(&registry, cfg);

  std::vector<std::shared_ptr<ServeTicket>> healthy;
  for (int i = 0; i < 8; ++i) {
    ServeRequest ok_req;
    ok_req.plan = "sum_by_key";
    ok_req.params.Set("mod", lang::Value(int64_t{4 + i}));
    healthy.push_back(driver.Submit(ok_req));
  }
  ServeRequest doomed;
  doomed.plan = "expensive";
  doomed.deadline_s = 1.0;  // simulated seconds; the plan needs ~1e9
  ServeResponse failed = driver.Execute(doomed);
  EXPECT_TRUE(failed.status.IsDeadlineExceeded())
      << failed.status.message();

  for (auto& t : healthy) EXPECT_TRUE(t->Wait().status.ok());
  ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.failed, 1);
}

TEST(ServingDeadlineTest, PerRequestDeadlineOverridesTheDefault) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(ExpensiveSpec()).ok());
  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.cache_entries = 0;
  cfg.default_deadline_s = 1.0;  // default would kill the expensive plan
  ServingDriver driver(&registry, cfg);

  ServeRequest with_default;
  with_default.plan = "expensive";
  EXPECT_TRUE(driver.Execute(with_default).status.IsDeadlineExceeded());

  ServeRequest opted_out = with_default;
  opted_out.deadline_s = 0.0;  // explicitly no deadline
  EXPECT_TRUE(driver.Execute(opted_out).status.ok());
}

// --- fairness --------------------------------------------------------------

TEST(ServingFairnessTest, RoundRobinAcrossTenants) {
  Gate gate;
  std::vector<std::string> order;
  std::mutex order_mu;
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(GatedSpec(&gate, &order, &order_mu)).ok());

  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.max_in_flight = 1;  // one worker -> pop order IS completion order
  cfg.max_queue_depth = 16;
  ServingDriver driver(&registry, cfg);

  // Pin the worker, then build the queues: tenant A floods five requests,
  // tenant B trickles three.
  ServeRequest blocker;
  blocker.plan = "gated";
  blocker.tenant = "A";
  blocker.params.Set("id", lang::Value(std::string("blk")));
  auto blk = driver.Submit(blocker);
  gate.AwaitEntered(1);

  auto enqueue = [&](const std::string& tenant, const std::string& id) {
    ServeRequest req;
    req.plan = "gated";
    req.tenant = tenant;
    req.params.Set("id", lang::Value(id));
    return driver.Submit(req);
  };
  std::vector<std::shared_ptr<ServeTicket>> tickets;
  for (int i = 1; i <= 5; ++i) tickets.push_back(enqueue("A", "A" + std::to_string(i)));
  for (int i = 1; i <= 3; ++i) tickets.push_back(enqueue("B", "B" + std::to_string(i)));

  gate.Release();
  EXPECT_TRUE(blk->Wait().status.ok());
  for (auto& t : tickets) EXPECT_TRUE(t->Wait().status.ok());

  // Cursor semantics: the worker resumes scanning after the tenant it just
  // served, so A's flood and B's trickle alternate until B drains.
  const std::vector<std::string> expected = {"blk", "A1", "B1", "A2", "B2",
                                             "A3", "B3", "A4", "A5"};
  std::lock_guard<std::mutex> lock(order_mu);
  EXPECT_EQ(order, expected);
}

TEST(ServingFairnessTest, TenantWeightsSkewTheRoundRobin) {
  Gate gate;
  std::vector<std::string> order;
  std::mutex order_mu;
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(GatedSpec(&gate, &order, &order_mu)).ok());

  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.max_in_flight = 1;
  cfg.max_queue_depth = 16;
  cfg.tenant_weights["A"] = 2;  // A is served two per turn, B one
  ServingDriver driver(&registry, cfg);

  // The blocker lives in its own tenant so it doesn't consume A's credit.
  ServeRequest blocker;
  blocker.plan = "gated";
  blocker.tenant = "warm";
  blocker.params.Set("id", lang::Value(std::string("blk")));
  auto blk = driver.Submit(blocker);
  gate.AwaitEntered(1);

  auto enqueue = [&](const std::string& tenant, const std::string& id) {
    ServeRequest req;
    req.plan = "gated";
    req.tenant = tenant;
    req.params.Set("id", lang::Value(id));
    return driver.Submit(req);
  };
  std::vector<std::shared_ptr<ServeTicket>> tickets;
  for (int i = 1; i <= 5; ++i) tickets.push_back(enqueue("A", "A" + std::to_string(i)));
  for (int i = 1; i <= 3; ++i) tickets.push_back(enqueue("B", "B" + std::to_string(i)));

  gate.Release();
  EXPECT_TRUE(blk->Wait().status.ok());
  for (auto& t : tickets) EXPECT_TRUE(t->Wait().status.ok());

  const std::vector<std::string> expected = {"blk", "A1", "A2", "B1", "A3",
                                             "A4", "B2", "A5", "B3"};
  std::lock_guard<std::mutex> lock(order_mu);
  EXPECT_EQ(order, expected);
}

// --- the isolation contract ------------------------------------------------

std::vector<ServeRequest> ContractRequests() {
  std::vector<ServeRequest> reqs;
  for (int64_t mod : {3, 5, 11, 31}) {
    ServeRequest req;
    req.plan = "sum_by_key";
    req.params.Set("mod", lang::Value(mod));
    reqs.push_back(req);
  }
  ServeRequest lang_req;
  lang_req.plan = "double_plus_boost";
  lang_req.params.Set("boost", lang::Value(int64_t{7}));
  reqs.push_back(lang_req);
  return reqs;
}

/// Runs the contract requests alone (one-at-a-time driver) and concurrently
/// under load (all submitted at once, several repeats), and requires every
/// concurrent response to be bit-identical to its solo baseline.
void CheckConcurrentVsSerialBitIdentity(ClusterConfig engine_cfg) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  Result<PlanSpec> lang_spec = DoublePlusBoostSpec();
  ASSERT_TRUE(lang_spec.ok());
  ASSERT_TRUE(registry.Register(std::move(lang_spec).value()).ok());

  const std::vector<ServeRequest> requests = ContractRequests();

  ServingConfig solo_cfg = BaseServing(engine_cfg);
  solo_cfg.max_in_flight = 1;
  solo_cfg.cache_entries = 0;
  solo_cfg.record_traces = true;
  std::vector<ServeResponse> baseline;
  {
    ServingDriver solo(&registry, solo_cfg);
    for (const ServeRequest& req : requests) {
      baseline.push_back(solo.Execute(req));
      ASSERT_TRUE(baseline.back().status.ok())
          << baseline.back().status.message();
    }
  }

  ServingConfig load_cfg = BaseServing(engine_cfg);
  load_cfg.max_in_flight = 4;
  load_cfg.max_queue_depth = 64;
  load_cfg.cache_entries = 0;  // every request truly recomputes under load
  load_cfg.record_traces = true;
  ServingDriver load(&registry, load_cfg);
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::vector<std::shared_ptr<ServeTicket>> tickets;
    for (const ServeRequest& req : requests) tickets.push_back(load.Submit(req));
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      ExpectSameResponse(tickets[i]->Wait(), baseline[i]);
    }
  }
}

TEST(ServingDeterminismTest, ConcurrentMatchesSerialClean) {
  CheckConcurrentVsSerialBitIdentity(EngineConfig());
}

TEST(ServingDeterminismTest, ConcurrentMatchesSerialUnderFaults) {
  CheckConcurrentVsSerialBitIdentity(WithFaults(EngineConfig()));
}

TEST(ServingDeterminismTest, ConcurrentMatchesSerialFusionOn) {
  CheckConcurrentVsSerialBitIdentity(WithFusion(EngineConfig(), true));
}

TEST(ServingDeterminismTest, ConcurrentMatchesSerialFusionOff) {
  CheckConcurrentVsSerialBitIdentity(WithFusion(EngineConfig(), false));
}

// --- memo cache ------------------------------------------------------------

TEST(ServingCacheTest, HitIsByteIdenticalToRecompute) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.cache_entries = 8;
  cfg.record_traces = true;
  ServingDriver driver(&registry, cfg);

  ServeRequest req;
  req.plan = "sum_by_key";
  req.params.Set("mod", lang::Value(int64_t{9}));
  ServeResponse first = driver.Execute(req);
  ServeResponse second = driver.Execute(req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ExpectSameResponse(second, first);

  // The isolation contract: responses never carry cache counters, hit or
  // not — those live only in the driver's aggregate stats.
  EXPECT_EQ(first.metrics.cache_hits, 0);
  EXPECT_EQ(second.metrics.cache_hits, 0);
  EXPECT_EQ(second.metrics.cache_misses, 0);
  ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.cache.hits, 1);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.aggregate.cache_hits, 1);
  EXPECT_EQ(stats.aggregate.cache_misses, 1);
}

TEST(ServingCacheTest, HitMissEvictionCountersAreExact) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.cache_entries = 2;
  ServingDriver driver(&registry, cfg);

  auto run = [&](int64_t mod) {
    ServeRequest req;
    req.plan = "sum_by_key";
    req.params.Set("mod", lang::Value(mod));
    ASSERT_TRUE(driver.Execute(req).status.ok());
  };
  run(3);  // miss, insert              {3}
  run(5);  // miss, insert              {5, 3}
  run(3);  // hit, freshen              {3, 5}
  run(7);  // miss, insert, evict 5     {7, 3}
  run(5);  // miss again (was evicted)  {5, 7}
  run(5);  // hit

  ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.cache.hits, 2);
  EXPECT_EQ(stats.cache.misses, 4);
  EXPECT_EQ(stats.cache.evictions, 2);
  EXPECT_EQ(stats.cache.size, 2u);
}

TEST(ServingCacheTest, DisabledCacheLeavesTheEngineByteIdentical) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());

  ServeRequest req;
  req.plan = "sum_by_key";
  req.params.Set("mod", lang::Value(int64_t{6}));

  ServingConfig on_cfg = BaseServing(EngineConfig());
  on_cfg.cache_entries = 8;
  on_cfg.record_traces = true;
  ServingConfig off_cfg = on_cfg;
  off_cfg.cache_entries = 0;

  ServingDriver on(&registry, on_cfg);
  ServingDriver off(&registry, off_cfg);
  ServeResponse cold = on.Execute(req);
  ServeResponse warm = on.Execute(req);   // cache hit
  ServeResponse plain = off.Execute(req);  // cache disabled
  ASSERT_TRUE(plain.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(plain.cache_hit);
  ExpectSameResponse(cold, plain);
  ExpectSameResponse(warm, plain);
  EXPECT_EQ(off.GetStats().cache.misses, 0);  // disabled: not even counted

  // Per-request opt-out behaves like a disabled cache for that request.
  ServeRequest no_cache = req;
  no_cache.use_cache = false;
  ServeResponse opted_out = on.Execute(no_cache);
  ExpectSameResponse(opted_out, plain);
  EXPECT_FALSE(opted_out.cache_hit);
}

TEST(ServingCacheTest, KeySeparatesPlansParamsAndInputs) {
  MemoCache cache(8);
  auto result = std::make_shared<CachedResult>();
  const CacheKey a{"plan_a", 1, 100};
  cache.Insert(a, result);
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(CacheKey{"plan_b", 1, 100}), nullptr);
  EXPECT_EQ(cache.Lookup(CacheKey{"plan_a", 2, 100}), nullptr);
  EXPECT_EQ(cache.Lookup(CacheKey{"plan_a", 1, 101}), nullptr);
  MemoCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
}

TEST(ServingCacheTest, EvictionCounterExactUnderConcurrentEvictions) {
  // N threads insert all-distinct keys into a small cache: every insert
  // beyond capacity evicts exactly one LRU entry, so the final accounting
  // must balance to the key: evictions == inserts - capacity, size ==
  // capacity — exactly, not approximately, even with all threads racing the
  // eviction path.
  constexpr std::size_t kCapacity = 7;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  MemoCache cache(kCapacity);
  auto result = std::make_shared<CachedResult>();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &result, t] {
      for (int i = 0; i < kPerThread; ++i) {
        cache.Insert(CacheKey{"plan", static_cast<uint64_t>(t),
                              static_cast<uint64_t>(i)},
                     result);
      }
    });
  }
  for (auto& th : threads) th.join();
  MemoCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.size, kCapacity);
  EXPECT_EQ(stats.evictions,
            static_cast<int64_t>(kThreads * kPerThread - kCapacity));
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST(ServingCacheTest, ConcurrentIdenticalRequestsStayCoherent) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(SumByKeySpec()).ok());
  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.cache_entries = 8;
  cfg.max_queue_depth = 64;
  ServingDriver driver(&registry, cfg);

  ServeRequest req;
  req.plan = "sum_by_key";
  req.params.Set("mod", lang::Value(int64_t{13}));
  std::vector<std::shared_ptr<ServeTicket>> tickets;
  for (int i = 0; i < 16; ++i) tickets.push_back(driver.Submit(req));

  const ServeResponse& first = tickets[0]->Wait();
  ASSERT_TRUE(first.status.ok());
  for (auto& t : tickets) {
    const ServeResponse& resp = t->Wait();
    // Hit or recompute is timing-dependent; the response must not be.
    EXPECT_EQ(resp.output, first.output);
    ExpectSameMetrics(resp.metrics, first.metrics);
  }
  ServingDriver::Stats stats = driver.GetStats();
  EXPECT_EQ(stats.completed, 16);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 16);
}

// --- iterative plans --------------------------------------------------------

/// "halve_until_zero": an iterative plan — values halve every round until
/// all reach zero — registered exactly like any one-shot plan. The loop is
/// an engine::Iterate on the request's own cluster, with the convergence
/// test (a fused AnyMatch) evaluated in-engine, so the serving layer needs
/// no special casing for iterative programs.
PlanSpec HalveUntilZeroSpec() {
  PlanSpec spec;
  spec.name = "halve_until_zero";
  spec.description = "iterative halving until fixpoint";
  spec.body = [](engine::Cluster* c, const PlanParams& params) {
    const int64_t rows = params.GetInt("rows", 512);
    std::vector<std::pair<int64_t, int64_t>> kv;
    kv.reserve(static_cast<std::size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) kv.emplace_back(i % 16, i);
    auto state0 = engine::Parallelize(c, std::move(kv), 8);
    engine::IterateOptions options;
    options.max_iterations = 64;
    options.label = "halve-until-zero";
    auto fixpoint = engine::Iterate(
        c, state0,
        [](engine::Bag<std::pair<int64_t, int64_t>> s, int64_t) {
          return engine::Map(s, [](const std::pair<int64_t, int64_t>& p) {
            return std::pair<int64_t, int64_t>(p.first, p.second / 2);
          });
        },
        [](engine::Bag<std::pair<int64_t, int64_t>>* s, int64_t) {
          return !engine::AnyMatch(
              *s,
              [](const std::pair<int64_t, int64_t>& p) {
                return p.second > 0;
              });
        },
        options);
    return CollectOutput(fixpoint);
  };
  return spec;
}

TEST(ServingIterativePlanTest, IterativePlanIsCacheableAcrossRequests) {
  PlanRegistry registry;
  ASSERT_TRUE(registry.Register(HalveUntilZeroSpec()).ok());
  ServingConfig cfg = BaseServing(EngineConfig());
  cfg.cache_entries = 8;
  ServingDriver driver(&registry, cfg);
  ServeRequest req;
  req.plan = "halve_until_zero";
  ServeResponse first = driver.Execute(req);
  ServeResponse second = driver.Execute(req);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.output, first.output);
}

// --- the Force() driver-thread contract ------------------------------------

#if !defined(MATRYOSHKA_TSAN) && defined(GTEST_HAS_DEATH_TEST)
TEST(ServingForceContractTest, OffThreadForceOnPendingBagDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ClusterConfig cfg;  // serial engine: the death is about threads, not pools
  engine::Cluster cluster(cfg);
  auto bag = engine::Parallelize(&cluster, std::vector<int64_t>{1, 2, 3}, 2);
  auto pending = engine::Map(bag, [](int64_t x) { return x * 2; });
  ASSERT_TRUE(pending.pending());

  EXPECT_DEATH(
      {
        std::thread t([&pending] { pending.Force(); });
        t.join();
      },
      "driver thread");
}
#endif  // !MATRYOSHKA_TSAN && GTEST_HAS_DEATH_TEST

TEST(ServingForceContractTest, BindDriverThreadHandsTheClusterOver) {
  ClusterConfig cfg;
  engine::Cluster cluster(cfg);
  auto bag = engine::Parallelize(&cluster, std::vector<int64_t>{1, 2, 3}, 2);
  auto pending = engine::Map(bag, [](int64_t x) { return x * 2; });
  ASSERT_TRUE(pending.pending());

  std::vector<int64_t> values;
  std::thread t([&] {
    cluster.BindDriverThread();  // the sanctioned hand-off
    pending.Force();
    values = engine::Collect(pending);
  });
  t.join();
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int64_t>{2, 4, 6}));
  EXPECT_TRUE(cluster.ok());
}

TEST(ServingForceContractTest, MaterializedBagsForceAnywhere) {
  // A no-op Force (nothing pending) is legal from any thread: serving
  // workers hold materialized bags without owning the cluster.
  ClusterConfig cfg;
  engine::Cluster cluster(cfg);
  auto bag = engine::Parallelize(&cluster, std::vector<int64_t>{1, 2, 3}, 2);
  auto mapped = engine::Map(bag, [](int64_t x) { return x + 1; });
  mapped.Force();  // materialize on the driver thread

  std::thread t([&] { mapped.Force(); });  // no-op off-thread: fine
  t.join();
  EXPECT_TRUE(cluster.ok());
}

}  // namespace
}  // namespace matryoshka::serve
