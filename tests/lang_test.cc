// Tests for the two-phase flattening pipeline on the plan IR: the parsing
// phase must turn surface programs (Listing 1) into explicitly
// nested-parallel plans (Listing 2), and the lowering phase must execute
// those plans on the engine with results equal to a driver-side reference
// (the Listing 3 equivalence).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/bag.h"
#include "lang/expr.h"
#include "lang/lowering_phase.h"
#include "lang/parsing_phase.h"
#include "lang/value.h"
#include "workloads/bounce_rate.h"

namespace matryoshka::lang {
namespace {

using engine::Cluster;
using engine::ClusterConfig;

ClusterConfig TestConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

// ---------- Value ----------

TEST(ValueTest, ScalarAccessors) {
  EXPECT_EQ(Value(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value(3).AsDouble(), 3.0);  // int widens
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value(std::string("hi")).AsString(), "hi");
}

TEST(ValueTest, TuplesAndFields) {
  Value t = Value::MakeTuple({Value(1), Value(2.0), Value(std::string("x"))});
  EXPECT_TRUE(t.is_tuple());
  EXPECT_EQ(t.Field(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(t.Field(1).AsDouble(), 2.0);
  EXPECT_EQ(t.ToString(), "(1, 2.000000, \"x\")");
}

TEST(ValueTest, EqualityAndHash) {
  Value a = Value::MakeTuple({Value(1), Value(2)});
  Value b = Value::MakeTuple({Value(1), Value(2)});
  Value c = Value::MakeTuple({Value(2), Value(1)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::hash<Value> h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(Value(1), Value(1.0));  // type-tagged equality
}

TEST(ValueTest, OrderingIsTotalWithinTypes) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(std::string("a")), Value(std::string("b")));
}

// ---------- The bounce-rate program (Listing 1 in the IR) ----------

/// visits: Bag of (day, ip) 2-tuples.
Program BounceRateSurfaceProgram() {
  using B = BinOpKind;
  Program p;
  // let visitsPerDay = visits.groupByKey()
  p.stmts.push_back(Stmt{"visitsPerDay", GroupByKey(Source("visits"))});
  // let rates = visitsPerDay.map { (day, group) =>
  //   let countsPerIP   = group.map(ip => (ip, 1)).reduceByKey(_ + _)
  //   let bounced       = countsPerIP.filter(p => p._2 == 1)
  //   let numBounces    = bounced.count()
  //   let numTotal      = group.distinct().count()
  //   return numBounces / numTotal }
  std::vector<Stmt> body;
  body.push_back(Stmt{
      "countsPerIP",
      ReduceByKey(Map(Var("group"),
                      Lam("ip", MakeTuple({Var("ip"), Lit(Value(1))}))),
                  Lam2("a", "b", BinOp(B::kAdd, Var("a"), Var("b"))))});
  body.push_back(
      Stmt{"bounced",
           Filter(Var("countsPerIP"),
                  Lam("p", BinOp(B::kEq, Field(Var("p"), 1),
                                 Lit(Value(1)))))});
  body.push_back(Stmt{"numBounces", Count(Var("bounced"))});
  body.push_back(Stmt{"numTotal", Count(Distinct(Var("group")))});
  p.stmts.push_back(
      Stmt{"rates", Map(Var("visitsPerDay"),
                        LamProgram({"day", "group"}, std::move(body),
                                   BinOp(B::kDiv, Var("numBounces"),
                                         Var("numTotal"))))});
  p.result = "rates";
  return p;
}

engine::Bag<Value> VisitsBag(Cluster* cluster,
                             const std::vector<datagen::Visit>& visits) {
  std::vector<Value> rows;
  rows.reserve(visits.size());
  for (const auto& [day, ip] : visits) {
    rows.push_back(Value::MakeTuple({Value(day), Value(ip)}));
  }
  return engine::Parallelize(cluster, std::move(rows), 8);
}

// ---------- Parsing phase ----------

TEST(ParsingPhaseTest, BounceRateBecomesListing2) {
  ParsingPhase parser;
  auto parsed = parser.Rewrite(BounceRateSurfaceProgram());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string plan = ToString(*parsed);
  // The groupByKey became the nesting primitive...
  EXPECT_NE(plan.find("groupByKeyIntoNestedBag"), std::string::npos);
  EXPECT_EQ(plan.find("groupByKey("), std::string::npos);
  // ...the map became a mapWithLiftedUDF...
  EXPECT_NE(plan.find("mapWithLiftedUDF"), std::string::npos);
  // ...and its body uses the lifted operations of Listing 2.
  EXPECT_NE(plan.find("liftedReduceByKey"), std::string::npos);
  EXPECT_NE(plan.find("liftedFilter"), std::string::npos);
  EXPECT_NE(plan.find("liftedCount"), std::string::npos);
  EXPECT_NE(plan.find("liftedDistinct"), std::string::npos);
  EXPECT_NE(plan.find("binaryScalarOp[/]"), std::string::npos);
  // The original in-UDF operations are gone.
  EXPECT_EQ(plan.find(" count("), std::string::npos);
}

TEST(ParsingPhaseTest, TypesAreTracked) {
  ParsingPhase parser;
  auto parsed = parser.Rewrite(BounceRateSurfaceProgram());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parser.types().at("visitsPerDay"), VType::kNestedBag);
  EXPECT_EQ(parser.types().at("rates"), VType::kInnerScalar);
}

TEST(ParsingPhaseTest, PlainMapStaysUnlifted) {
  Program p;
  p.stmts.push_back(Stmt{
      "doubled",
      Map(Source("xs"),
          Lam("x", BinOp(BinOpKind::kMul, Var("x"), Lit(Value(2)))))});
  p.result = "doubled";
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->stmts[0].expr->kind, ExprKind::kMap);
  EXPECT_EQ(parser.types().at("doubled"), VType::kBag);
}

TEST(ParsingPhaseTest, ClosureConversionRecordsCaptures) {
  // A plain map whose lambda references a driver scalar.
  Program p;
  p.stmts.push_back(Stmt{"threshold", Lit(Value(10))});
  p.stmts.push_back(Stmt{
      "big", Filter(Source("xs"),
                    Lam("x", BinOp(BinOpKind::kLt, Var("threshold"),
                                   Var("x"))))});
  p.result = "big";
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok());
  const auto& lam = parsed->stmts[1].expr->lambda;
  ASSERT_EQ(lam->captures.size(), 1u);
  EXPECT_EQ(lam->captures[0], "threshold");
}

TEST(ParsingPhaseTest, InnerScalarClosureBecomesMapWithClosure) {
  // Inside the lifted UDF, an element lambda references numTotal (an
  // InnerScalar): Sec. 5.1 requires a mapWithClosure.
  using B = BinOpKind;
  std::vector<Stmt> body;
  body.push_back(Stmt{"numTotal", Count(Var("group"))});
  body.push_back(Stmt{
      "weighted",
      Map(Var("group"),
          Lam("x", BinOp(B::kMul, Var("x"), Var("numTotal"))))});
  body.push_back(Stmt{"sum", Count(Var("weighted"))});
  Program p;
  p.stmts.push_back(Stmt{"grouped", GroupByKey(Source("data"))});
  p.stmts.push_back(Stmt{
      "out", Map(Var("grouped"),
                 LamProgram({"k", "group"}, std::move(body), Var("sum")))});
  p.result = "out";
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string plan = ToString(*parsed);
  EXPECT_NE(plan.find("liftedMapWithClosure"), std::string::npos);
  EXPECT_NE(plan.find("$numTotal"), std::string::npos);
}

TEST(ParsingPhaseTest, RejectsBagOpsInAggregationUdfs) {
  // Sec. 7's stated assumption: reduce UDFs must not contain bag ops.
  Program p;
  p.stmts.push_back(Stmt{
      "bad", ReduceByKey(Source("xs"),
                         Lam2("a", "b", Count(Source("ys"))))});
  p.result = "bad";
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  EXPECT_TRUE(parsed.status().IsUnsupported());
}

TEST(ParsingPhaseTest, RejectsUnboundResult) {
  Program p;
  p.result = "nothing";
  ParsingPhase parser;
  EXPECT_TRUE(parser.Rewrite(p).status().IsInvalidArgument());
}

TEST(ParsingPhaseTest, RejectsUnboundVariable) {
  Program p;
  p.stmts.push_back(Stmt{"y", Count(Var("missing"))});
  p.result = "y";
  ParsingPhase parser;
  EXPECT_TRUE(parser.Rewrite(p).status().IsInvalidArgument());
}

// ---------- Lowering phase (end-to-end Listing 1 -> result) ----------

TEST(LoweringPhaseTest, BounceRateEndToEndMatchesReference) {
  auto visits = datagen::GenerateVisits(4000, 12, 0.0, 0.5, 3);
  auto ref_pairs = workloads::BounceRateReference(visits);
  std::map<int64_t, double> ref(ref_pairs.begin(), ref_pairs.end());

  Cluster cluster(TestConfig());
  ParsingPhase parser;
  auto parsed = parser.Rewrite(BounceRateSurfaceProgram());
  ASSERT_TRUE(parsed.ok());
  LoweringPhase lowering(&cluster);
  lowering.BindSource("visits", VisitsBag(&cluster, visits));
  auto result = lowering.Execute(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), ref.size());
  for (const Value& row : *result) {
    const int64_t day = row.Field(0).AsInt();
    ASSERT_TRUE(ref.count(day)) << "unexpected day " << day;
    EXPECT_NEAR(row.Field(1).AsDouble(), ref[day], 1e-12) << "day " << day;
  }
}

TEST(LoweringPhaseTest, RefusesRawSurfacePlan) {
  // Executing the surface program directly (without the parsing phase)
  // must fail: the lowering phase only understands the explicit plan.
  Cluster cluster(TestConfig());
  LoweringPhase lowering(&cluster);
  lowering.BindSource("visits", VisitsBag(&cluster, {}));
  auto result = lowering.Execute(BounceRateSurfaceProgram());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

/// Parses `surface` and lowers it on `cluster` over one bound source.
Result<std::vector<Value>> Lower(Cluster* cluster, const Program& surface,
                                 const std::string& source,
                                 std::vector<Value> rows) {
  ParsingPhase parser;
  MATRYOSHKA_ASSIGN_OR_RETURN(Program parsed, parser.Rewrite(surface));
  LoweringPhase lowering(cluster);
  lowering.BindSource(source,
                      engine::Parallelize(cluster, std::move(rows), 4));
  return lowering.Execute(parsed);
}

Result<std::vector<Value>> LowerOverOneTwoThree(const Program& surface) {
  Cluster cluster(TestConfig());
  return Lower(&cluster, surface, "xs", {Value(1), Value(2), Value(3)});
}

TEST(LoweringPhaseTest, FlatPipelineExecutes) {
  // Nested scalar ops in a filter. `/` is real division, so
  // x - (x / 2) * 2 == 0.0 holds for every x and every element is kept.
  Program p;
  p.stmts.push_back(Stmt{
      "kept",
      Filter(Source("xs"),
             Lam("x", BinOp(BinOpKind::kEq,
                            BinOp(BinOpKind::kSub, Var("x"),
                                  BinOp(BinOpKind::kMul,
                                        BinOp(BinOpKind::kDiv, Var("x"),
                                              Lit(Value(2))),
                                        Lit(Value(2)))),
                            Lit(Value(0.0)))))});
  p.result = "kept";
  auto kept = LowerOverOneTwoThree(p);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  std::vector<int64_t> got;
  for (const Value& v : *kept) got.push_back(v.AsInt());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3}));

  Program q;
  q.stmts.push_back(Stmt{
      "doubled",
      Map(Source("xs"),
          Lam("x", BinOp(BinOpKind::kMul, Var("x"), Lit(Value(2)))))});
  q.stmts.push_back(Stmt{"n", Count(Var("doubled"))});
  q.result = "doubled";
  auto doubled = LowerOverOneTwoThree(q);
  ASSERT_TRUE(doubled.ok()) << doubled.status().ToString();
  got.clear();
  for (const Value& v : *doubled) got.push_back(v.AsInt());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{2, 4, 6}));
}

TEST(LoweringPhaseTest, UnboundNameInFlatLambdaIsInvalidArgument) {
  Program p;
  p.stmts.push_back(Stmt{
      "bad", Map(Source("xs"),
                 Lam("x", BinOp(BinOpKind::kAdd, Var("x"), Var("nope"))))});
  p.result = "bad";
  auto result = LowerOverOneTwoThree(p);
  ASSERT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("nope"), std::string::npos);
}

TEST(LoweringPhaseTest, UnboundNameInLiftedLambdaIsInvalidArgument) {
  std::vector<Stmt> body;
  body.push_back(Stmt{
      "shifted", Map(Var("group"), Lam("x", BinOp(BinOpKind::kAdd, Var("x"),
                                                  Var("nope"))))});
  body.push_back(Stmt{"n", Count(Var("shifted"))});
  Program p;
  p.stmts.push_back(Stmt{"grouped", GroupByKey(Source("data"))});
  p.stmts.push_back(Stmt{
      "out", Map(Var("grouped"),
                 LamProgram({"k", "group"}, std::move(body), Var("n")))});
  p.result = "out";
  Cluster cluster(TestConfig());
  auto result = Lower(&cluster, p, "data",
                      {Value::MakeTuple({Value(1), Value(10)}),
                       Value::MakeTuple({Value(2), Value(20)})});
  ASSERT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("nope"), std::string::npos);
}

TEST(LoweringPhaseTest, UnaryCombinerIsInvalidArgument) {
  // Duplicate keys make the engine call the combiner.
  Program p;
  p.stmts.push_back(
      Stmt{"summed", ReduceByKey(Source("kv"), Lam("a", Var("a")))});
  p.result = "summed";
  Cluster cluster(TestConfig());
  auto result = Lower(&cluster, p, "kv",
                      {Value::MakeTuple({Value(1), Value(10)}),
                       Value::MakeTuple({Value(1), Value(11)})});
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(LoweringPhaseTest, CountActionReturnsDriverScalar) {
  Program p;
  p.stmts.push_back(Stmt{"n", Count(Source("xs"))});
  p.result = "n";
  Cluster cluster(TestConfig());
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok());
  LoweringPhase lowering(&cluster);
  lowering.BindSource(
      "xs", engine::Parallelize(&cluster,
                                std::vector<Value>{Value(1), Value(2)}, 2));
  auto result = lowering.Execute(*parsed);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].AsInt(), 2);
}

TEST(LoweringPhaseTest, LiftedMapWithClosureExecutes) {
  // Per group: multiply every element by the group's size.
  using B = BinOpKind;
  std::vector<Stmt> body;
  body.push_back(Stmt{"n", Count(Var("group"))});
  body.push_back(Stmt{
      "scaled", Map(Var("group"),
                    Lam("x", BinOp(B::kMul, Var("x"), Var("n"))))});
  body.push_back(Stmt{"total", Count(Var("scaled"))});
  Program p;
  p.stmts.push_back(Stmt{"grouped", GroupByKey(Source("data"))});
  p.stmts.push_back(Stmt{
      "out", Map(Var("grouped"),
                 LamProgram({"k", "group"}, std::move(body), Var("total")))});
  p.result = "out";

  Cluster cluster(TestConfig());
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  LoweringPhase lowering(&cluster);
  std::vector<Value> rows = {
      Value::MakeTuple({Value(1), Value(10)}),
      Value::MakeTuple({Value(1), Value(11)}),
      Value::MakeTuple({Value(2), Value(20)}),
  };
  lowering.BindSource("data", engine::Parallelize(&cluster, rows, 2));
  auto result = lowering.Execute(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Result: per group the count of scaled elements = group size.
  std::map<int64_t, int64_t> got;
  for (const Value& row : *result) {
    got[row.Field(0).AsInt()] = row.Field(1).AsInt();
  }
  EXPECT_EQ(got[1], 2);
  EXPECT_EQ(got[2], 1);
}

TEST(LoweringPhaseTest, UnboundSourceFails) {
  Program p;
  p.stmts.push_back(Stmt{"n", Count(Source("nowhere"))});
  p.result = "n";
  Cluster cluster(TestConfig());
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok());
  LoweringPhase lowering(&cluster);
  EXPECT_TRUE(lowering.Execute(*parsed).status().IsInvalidArgument());
}

TEST(LiftedWhileIrTest, IterativeInnerComputationEndToEnd) {
  // THE headline feature (Sec. 6): a while loop INSIDE the UDF of a nested
  // map, flowing through parsing + lowering. Per group: every element
  // doubles until the group's total element count (constant here) ... use
  // a scalar state: the group's count c doubles until >= 100; groups of
  // different sizes exit at different iterations.
  using B = BinOpKind;
  std::vector<Stmt> body;
  body.push_back(Stmt{"c0", Count(Var("group"))});
  std::vector<Stmt> loop_body;  // state s -> (s*2, s*2 < 100)
  loop_body.push_back(
      Stmt{"next", BinOp(B::kMul, Var("s"), Lit(Value(2)))});
  body.push_back(Stmt{
      "grown",
      While(Var("c0"),
            LamProgram({"s"}, std::move(loop_body),
                       MakeTuple({Var("next"),
                                  BinOp(B::kLt, Var("next"),
                                        Lit(Value(100)))})))});
  Program p;
  p.stmts.push_back(Stmt{"grouped", GroupByKey(Source("data"))});
  p.stmts.push_back(Stmt{
      "out", Map(Var("grouped"),
                 LamProgram({"k", "group"}, std::move(body), Var("grown")))});
  p.result = "out";

  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string plan = ToString(*parsed);
  EXPECT_NE(plan.find("liftedWhile"), std::string::npos);
  EXPECT_EQ(plan.find("while("), std::string::npos);

  // Groups of size 3, 20, and 60: 3->6->..->192 (6 rounds), 20->160 (3),
  // 60->120 (1).
  Cluster cluster(TestConfig());
  std::vector<Value> rows;
  for (int i = 0; i < 3; ++i)
    rows.push_back(Value::MakeTuple({Value(1), Value(i)}));
  for (int i = 0; i < 20; ++i)
    rows.push_back(Value::MakeTuple({Value(2), Value(i)}));
  for (int i = 0; i < 60; ++i)
    rows.push_back(Value::MakeTuple({Value(3), Value(i)}));
  LoweringPhase lowering(&cluster);
  lowering.BindSource("data", engine::Parallelize(&cluster, rows, 4));
  auto result = lowering.Execute(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::map<int64_t, int64_t> got;
  for (const Value& row : *result) {
    got[row.Field(0).AsInt()] = row.Field(1).AsInt();
  }
  EXPECT_EQ(got[1], 192);
  EXPECT_EQ(got[2], 160);
  EXPECT_EQ(got[3], 120);
}

TEST(LiftedWhileIrTest, BagStateLoopEndToEnd) {
  // InnerBag-valued loop state: keep halving all of a group's values until
  // none exceeds 2; the filter keeps the loop's data path honest.
  using B = BinOpKind;
  std::vector<Stmt> loop_body;
  loop_body.push_back(Stmt{
      "halved", Map(Var("s"), Lam("x", BinOp(B::kDiv, Var("x"),
                                             Lit(Value(2)))))});
  loop_body.push_back(Stmt{
      "big", Count(Filter(Var("halved"),
                          Lam("x", BinOp(B::kLt, Lit(Value(2.0)),
                                         Var("x")))))});
  std::vector<Stmt> body;
  body.push_back(Stmt{
      "shrunk",
      While(Var("group"),
            LamProgram({"s"}, std::move(loop_body),
                       MakeTuple({Var("halved"),
                                  BinOp(B::kLt, Lit(Value(0)),
                                        Var("big"))})))});
  body.push_back(Stmt{"n", Count(Var("shrunk"))});
  Program p;
  p.stmts.push_back(Stmt{"grouped", GroupByKey(Source("data"))});
  p.stmts.push_back(Stmt{
      "out", Map(Var("grouped"),
                 LamProgram({"k", "group"}, std::move(body), Var("n")))});
  p.result = "out";

  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Cluster cluster(TestConfig());
  std::vector<Value> rows = {
      Value::MakeTuple({Value(1), Value(64)}),
      Value::MakeTuple({Value(1), Value(8)}),
      Value::MakeTuple({Value(2), Value(4)}),
  };
  LoweringPhase lowering(&cluster);
  lowering.BindSource("data", engine::Parallelize(&cluster, rows, 2));
  auto result = lowering.Execute(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every group keeps all of its elements; only values shrink.
  std::map<int64_t, int64_t> got;
  for (const Value& row : *result) {
    got[row.Field(0).AsInt()] = row.Field(1).AsInt();
  }
  EXPECT_EQ(got[1], 2);
  EXPECT_EQ(got[2], 1);
}

TEST(LiftedIfIrTest, BranchesRouteByGroupCondition) {
  // Groups with >= 3 elements double their values; smaller groups negate.
  using B = BinOpKind;
  std::vector<Stmt> body;
  body.push_back(Stmt{"n", Count(Var("group"))});
  body.push_back(Stmt{"isBig", BinOp(B::kLe, Lit(Value(3)), Var("n"))});
  std::vector<Stmt> none;
  body.push_back(Stmt{
      "routed",
      If(Var("isBig"), Var("group"),
         LamProgram({"g"}, {},
                    Map(Var("g"), Lam("x", BinOp(B::kMul, Var("x"),
                                                 Lit(Value(2)))))),
         LamProgram({"g"}, {},
                    Map(Var("g"), Lam("x", BinOp(B::kSub, Lit(Value(0)),
                                                 Var("x"))))))});
  body.push_back(Stmt{"total", Count(Var("routed"))});
  Program p;
  p.stmts.push_back(Stmt{"grouped", GroupByKey(Source("data"))});
  p.stmts.push_back(Stmt{
      "out", Map(Var("grouped"),
                 LamProgram({"k", "group"}, std::move(body), Var("total")))});
  p.result = "out";

  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string plan = ToString(*parsed);
  EXPECT_NE(plan.find("liftedIf"), std::string::npos);
  EXPECT_EQ(plan.find("if("), std::string::npos);

  Cluster cluster(TestConfig());
  std::vector<Value> rows = {
      Value::MakeTuple({Value(1), Value(5)}),
      Value::MakeTuple({Value(1), Value(6)}),
      Value::MakeTuple({Value(1), Value(7)}),
      Value::MakeTuple({Value(2), Value(9)}),
  };
  LoweringPhase lowering(&cluster);
  lowering.BindSource("data", engine::Parallelize(&cluster, rows, 2));
  auto result = lowering.Execute(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::map<int64_t, int64_t> got;
  for (const Value& row : *result) {
    got[row.Field(0).AsInt()] = row.Field(1).AsInt();
  }
  // Counts survive both branches.
  EXPECT_EQ(got[1], 3);
  EXPECT_EQ(got[2], 1);
}

TEST(LiftedIfIrTest, BranchValuesAreActuallyRouted) {
  // Return the routed bag itself so the branch effects are visible.
  using B = BinOpKind;
  std::vector<Stmt> body;
  body.push_back(Stmt{"n", Count(Var("group"))});
  body.push_back(Stmt{"isBig", BinOp(B::kLe, Lit(Value(2)), Var("n"))});
  body.push_back(Stmt{
      "routed",
      If(Var("isBig"), Var("group"),
         LamProgram({"g"}, {},
                    Map(Var("g"), Lam("x", BinOp(B::kMul, Var("x"),
                                                 Lit(Value(10)))))),
         LamProgram({"g"}, {}, Var("g")))});
  Program p;
  p.stmts.push_back(Stmt{"grouped", GroupByKey(Source("data"))});
  p.stmts.push_back(Stmt{
      "out", Map(Var("grouped"),
                 LamProgram({"k", "group"}, std::move(body), Var("routed")))});
  p.result = "out";

  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parser.types().at("out"), VType::kInnerBag);

  Cluster cluster(TestConfig());
  std::vector<Value> rows = {
      Value::MakeTuple({Value(1), Value(5)}),
      Value::MakeTuple({Value(1), Value(6)}),
      Value::MakeTuple({Value(2), Value(9)}),
  };
  LoweringPhase lowering(&cluster);
  lowering.BindSource("data", engine::Parallelize(&cluster, rows, 2));
  auto result = lowering.Execute(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::multiset<int64_t> got;
  for (const Value& v : *result) got.insert(v.AsInt());
  // Group 1 (2 elements) doubled x10: 50, 60; group 2 untouched: 9.
  EXPECT_EQ(got, (std::multiset<int64_t>{9, 50, 60}));
}

TEST(LiftedWhileIrTest, TopLevelWhileIsRejected) {
  Program p;
  p.stmts.push_back(Stmt{
      "w", While(Source("xs"),
                 LamProgram({"s"}, {},
                            MakeTuple({Var("s"), Lit(Value(false))})))});
  p.result = "w";
  ParsingPhase parser;
  auto parsed = parser.Rewrite(p);
  EXPECT_FALSE(parsed.ok());
}

TEST(LoweringPhaseTest, JobCountIndependentOfGroupCount) {
  // The flattened bounce-rate plan launches O(1) jobs no matter how many
  // days there are — the property the whole system exists for.
  for (int64_t days : {4, 64}) {
    auto visits = datagen::GenerateVisits(2000, days, 0.0, 0.5, 9);
    Cluster cluster(TestConfig());
    ParsingPhase parser;
    auto parsed = parser.Rewrite(BounceRateSurfaceProgram());
    ASSERT_TRUE(parsed.ok());
    LoweringPhase lowering(&cluster);
    lowering.BindSource("visits", VisitsBag(&cluster, visits));
    auto result = lowering.Execute(*parsed);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(cluster.metrics().jobs, 3) << days << " days";
  }
}

// ---------- Pool determinism of lowered programs ----------

/// Every simulated Metrics field (the real_* execution counters are not
/// part of the determinism contract).
void ExpectSameSimulatedMetrics(const engine::Metrics& a,
                                const engine::Metrics& b) {
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

/// Lowers `surface` serially and on a four-thread pool, whose workers all
/// call the same compiled lambdas, and expects identical rows and metrics.
void ExpectPoolMatchesSerial(const Program& surface, const std::string& source,
                             const std::vector<Value>& rows) {
  ClusterConfig pooled_cfg = TestConfig();
  pooled_cfg.execute_parallel = true;
  pooled_cfg.pool_threads = 4;
  Cluster serial(TestConfig());
  Cluster pooled(pooled_cfg);
  auto serial_rows = Lower(&serial, surface, source, rows);
  auto pooled_rows = Lower(&pooled, surface, source, rows);
  ASSERT_TRUE(serial_rows.ok()) << serial_rows.status().ToString();
  ASSERT_TRUE(pooled_rows.ok()) << pooled_rows.status().ToString();
  ASSERT_FALSE(serial_rows->empty());
  EXPECT_EQ(*serial_rows, *pooled_rows);
  ExpectSameSimulatedMetrics(serial.metrics(), pooled.metrics());
}

TEST(LangParallelDeterminismTest, BounceRateMatchesSerial) {
  std::vector<Value> rows;
  for (const auto& [day, ip] :
       datagen::GenerateVisits(20000, 16, 0.0, 0.5, 5)) {
    rows.push_back(Value::MakeTuple({Value(day), Value(ip)}));
  }
  ExpectPoolMatchesSerial(BounceRateSurfaceProgram(), "visits", rows);
}

TEST(LangParallelDeterminismTest, FlatPipelineMatchesSerial) {
  // let cut = 700
  // xs.filter(p => p._1 < cut).map(p => (p._0, p._1 * 2)).reduceByKey(_ + _)
  using B = BinOpKind;
  Program p;
  p.stmts.push_back(Stmt{"cut", Lit(Value(700))});
  p.stmts.push_back(Stmt{
      "summed",
      ReduceByKey(
          Map(Filter(Source("xs"),
                     Lam("p", BinOp(B::kLt, Field(Var("p"), 1), Var("cut")))),
              Lam("p", MakeTuple({Field(Var("p"), 0),
                                  BinOp(B::kMul, Field(Var("p"), 1),
                                        Lit(Value(2)))}))),
          Lam2("a", "b", BinOp(B::kAdd, Var("a"), Var("b"))))});
  p.result = "summed";
  std::vector<Value> rows;
  for (int64_t i = 0; i < 20000; ++i) {
    rows.push_back(Value::MakeTuple({Value(i % 97), Value(i % 1000)}));
  }
  ExpectPoolMatchesSerial(p, "xs", rows);
}

}  // namespace
}  // namespace matryoshka::lang
