// Unit coverage for lang/compiled_lambda.h: every element-lambda shape the
// lowering phase hands it compiles and evaluates, names resolve in the
// documented shadowing order, and malformed lambdas fail the compile with
// InvalidArgument. End-to-end equivalence of lowered programs is locked by
// lang_test.cc; this file pins the compiler's contract directly.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "lang/compiled_lambda.h"
#include "lang/expr.h"
#include "lang/value.h"

namespace matryoshka::lang {
namespace {

using Captures = CompiledLambda::Captures;

Value Pair(int64_t a, int64_t b) {
  return Value(Value::Tuple{Value(a), Value(b)});
}

/// Compiles a lambda the test expects to compile; a failed compile throws,
/// which fails the calling test.
CompiledLambda MustCompile(const LambdaPtr& lam, const Captures& cap = {},
                           std::size_t arity = 1,
                           const std::string& closure = "") {
  Result<CompiledLambda> fn =
      CompiledLambda::Compile(*lam, arity, cap, closure);
  if (!fn.ok()) throw std::runtime_error(fn.status().ToString());
  return std::move(fn).value();
}

// --- EvalRowBinOp: the single-sourced scalar semantics ---------------------

TEST(EvalRowBinOpTest, IntPreservingArithmetic) {
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kAdd, Value(int64_t{2}), Value(int64_t{3})),
            Value(int64_t{5}));
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kMul, Value(int64_t{4}), Value(int64_t{6})),
            Value(int64_t{24}));
  // Mixed operands promote to double.
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kAdd, Value(int64_t{2}), Value(0.5)),
            Value(2.5));
}

TEST(EvalRowBinOpTest, DivisionByZeroYieldsZero) {
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kDiv, Value(int64_t{7}), Value(int64_t{0})),
            Value(0.0));
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kDiv, Value(int64_t{7}), Value(int64_t{2})),
            Value(3.5));
}

TEST(EvalRowBinOpTest, Comparisons) {
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kLe, Value(int64_t{3}), Value(int64_t{3})),
            Value(true));
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kLt, Value(int64_t{3}), Value(int64_t{3})),
            Value(false));
  EXPECT_EQ(EvalRowBinOp(BinOpKind::kNe, Value(std::string("a")),
                         Value(std::string("b"))),
            Value(true));
}

// --- Operands ---------------------------------------------------------------

TEST(CompiledLambdaTest, CompilesParamFieldAndFoldedCaptures) {
  Captures cap;
  cap.emplace("limit", Value(int64_t{10}));
  EXPECT_EQ(MustCompile(Lam("x", Var("x")), cap)(Value(int64_t{42})),
            Value(int64_t{42}));
  EXPECT_EQ(MustCompile(Lam("x", Field(Var("x"), 1)), cap)(Pair(3, 9)),
            Value(int64_t{9}));
  // A captured name folds to its driver-scalar value at compile time.
  EXPECT_EQ(MustCompile(Lam("x", Var("limit")), cap)(Value(int64_t{0})),
            Value(int64_t{10}));
}

TEST(CompiledLambdaTest, FieldOfFieldCompiles) {
  // x => x._0._1
  CompiledLambda fn = MustCompile(Lam("x", Field(Field(Var("x"), 0), 1)));
  EXPECT_EQ(fn(Value(Value::Tuple{Pair(4, 5), Value(int64_t{6})})),
            Value(int64_t{5}));
  // A row of the wrong shape throws the typed accessor error.
  EXPECT_THROW(fn(Value(int64_t{5})), std::invalid_argument);
}

// --- Predicates -------------------------------------------------------------

TEST(CompiledLambdaTest, PredicateEvaluates) {
  Captures cap;
  cap.emplace("cut", Value(int64_t{5}));
  // x => x._0 < cut
  CompiledLambda pred = MustCompile(
      Lam("x", BinOp(BinOpKind::kLt, Field(Var("x"), 0), Var("cut"))), cap);
  EXPECT_TRUE(pred(Pair(4, 0)).AsBool());
  EXPECT_FALSE(pred(Pair(5, 0)).AsBool());
}

TEST(CompiledLambdaTest, MultiStatementBodyCompiles) {
  // x => { let t = 1; let u = t + t; x < u }
  CompiledLambda pred = MustCompile(LamProgram(
      {"x"},
      {Stmt{"t", Lit(Value(int64_t{1}))},
       Stmt{"u", BinOp(BinOpKind::kAdd, Var("t"), Var("t"))}},
      BinOp(BinOpKind::kLt, Var("x"), Var("u"))));
  EXPECT_TRUE(pred(Value(int64_t{1})).AsBool());
  EXPECT_FALSE(pred(Value(int64_t{2})).AsBool());
}

TEST(CompiledLambdaTest, NestedBinOpCompiles) {
  // x => x < 9 && 0 < x
  CompiledLambda pred = MustCompile(Lam(
      "x", BinOp(BinOpKind::kAnd,
                 BinOp(BinOpKind::kLt, Var("x"), Lit(Value(int64_t{9}))),
                 BinOp(BinOpKind::kLt, Lit(Value(int64_t{0})), Var("x")))));
  EXPECT_TRUE(pred(Value(int64_t{4})).AsBool());
  EXPECT_FALSE(pred(Value(int64_t{9})).AsBool());
  EXPECT_FALSE(pred(Value(int64_t{0})).AsBool());
}

TEST(CompiledLambdaTest, ManyStepsEvaluate) {
  // x => x + 1 + 1 + ... (twelve steps: more slots than a call keeps on its
  // stack).
  ExprPtr sum = Var("x");
  for (int i = 0; i < 12; ++i) {
    sum = BinOp(BinOpKind::kAdd, sum, Lit(Value(int64_t{1})));
  }
  EXPECT_EQ(MustCompile(Lam("x", sum))(Value(int64_t{30})), Value(int64_t{42}));
}

// --- Projections ------------------------------------------------------------

TEST(CompiledLambdaTest, TupleProjectionEvaluates) {
  Captures cap;
  cap.emplace("k", Value(int64_t{100}));
  // x => (x._1, x._0 + k)
  CompiledLambda proj = MustCompile(
      Lam("x", MakeTuple({Field(Var("x"), 1),
                          BinOp(BinOpKind::kAdd, Field(Var("x"), 0),
                                Var("k"))})),
      cap);
  EXPECT_EQ(proj(Pair(3, 9)), Pair(9, 103));
}

TEST(CompiledLambdaTest, ScalarProjectionAndNestedTupleCompile) {
  // x => x._0 * x._0
  CompiledLambda sq = MustCompile(
      Lam("x", BinOp(BinOpKind::kMul, Field(Var("x"), 0), Field(Var("x"), 0))));
  EXPECT_EQ(sq(Pair(7, 0)), Value(int64_t{49}));
  // x => ((x), x)
  CompiledLambda nested =
      MustCompile(Lam("x", MakeTuple({MakeTuple({Var("x")}), Var("x")})));
  const Value x(int64_t{3});
  EXPECT_EQ(nested(x), Value(Value::Tuple{Value(Value::Tuple{x}), x}));
}

TEST(CompiledLambdaTest, FlatProjectionEmitsOneValuePerSlot) {
  // x => (x, x + 1): two output elements per input.
  CompiledLambda flat = MustCompile(
      Lam("x", MakeTuple({Var("x"), BinOp(BinOpKind::kAdd, Var("x"),
                                          Lit(Value(int64_t{1})))})));
  Value::Tuple out = flat(Value(int64_t{5})).TakeTuple();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Value(int64_t{5}));
  EXPECT_EQ(out[1], Value(int64_t{6}));
  // A non-tuple result cannot feed a flatMap.
  EXPECT_THROW(MustCompile(Lam("x", Var("x")))(Value(int64_t{5})).TakeTuple(),
               std::invalid_argument);
}

// --- Combiners --------------------------------------------------------------

TEST(CompiledLambdaTest, CombinerCompilesAnyScalarBody) {
  // (a, b) => a + b
  CompiledLambda add = MustCompile(
      Lam2("a", "b", BinOp(BinOpKind::kAdd, Var("a"), Var("b"))), {}, 2);
  EXPECT_EQ(add(Value(int64_t{2}), Value(int64_t{3})), Value(int64_t{5}));
  // Swapped parameter order is a different function, and it evaluates as one.
  CompiledLambda sub = MustCompile(
      Lam2("a", "b", BinOp(BinOpKind::kSub, Var("b"), Var("a"))), {}, 2);
  EXPECT_EQ(sub(Value(int64_t{2}), Value(int64_t{3})), Value(int64_t{1}));
}

// --- Name resolution --------------------------------------------------------

TEST(CompiledLambdaTest, ShadowingOrder) {
  // Captures < closure < parameters < let-bindings in body order.
  Captures cap;
  cap.emplace("k", Value(int64_t{1}));
  cap.emplace("c", Value(int64_t{2}));
  cap.emplace("x", Value(int64_t{3}));
  cap.emplace("y", Value(int64_t{4}));
  // x => { let y = x + 10; let x = y * 2; let y = y + 1; (k, c, x, y) }
  // with closure c.
  CompiledLambda fn = MustCompile(
      LamProgram({"x"},
                 {Stmt{"y", BinOp(BinOpKind::kAdd, Var("x"),
                                  Lit(Value(int64_t{10})))},
                  Stmt{"x", BinOp(BinOpKind::kMul, Var("y"),
                                  Lit(Value(int64_t{2})))},
                  Stmt{"y", BinOp(BinOpKind::kAdd, Var("y"),
                                  Lit(Value(int64_t{1})))}},
                 MakeTuple({Var("k"), Var("c"), Var("x"), Var("y")})),
      cap, 1, "c");
  EXPECT_EQ(fn(Value(int64_t{5}), Value(int64_t{7})),
            Value(Value::Tuple{Value(int64_t{1}), Value(int64_t{7}),
                               Value(int64_t{30}), Value(int64_t{16})}));
  // A parameter shadows a closure of the same name.
  CompiledLambda param = MustCompile(Lam("x", Var("x")), {}, 1, "x");
  EXPECT_EQ(param(Value(int64_t{5}), Value(int64_t{7})), Value(int64_t{5}));
}

// --- Malformed lambdas ------------------------------------------------------

TEST(CompiledLambdaTest, UnboundNameIsInvalidArgument) {
  Result<CompiledLambda> fn = CompiledLambda::Compile(
      *Lam("x", BinOp(BinOpKind::kAdd, Var("x"), Var("mystery"))), 1, {});
  ASSERT_TRUE(fn.status().IsInvalidArgument()) << fn.status().ToString();
  EXPECT_NE(fn.status().message().find("mystery"), std::string::npos);
  // A let-binding is not visible before its statement.
  EXPECT_TRUE(CompiledLambda::Compile(
                  *LamProgram({"x"}, {Stmt{"t", Var("u")},
                                      Stmt{"u", Lit(Value(int64_t{1}))}},
                              Var("t")),
                  1, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(CompiledLambdaTest, WrongParameterCountIsInvalidArgument) {
  // A unary lambda as a combiner, and a binary one as an element lambda.
  EXPECT_TRUE(CompiledLambda::Compile(*Lam("a", Var("a")), 2, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      CompiledLambda::Compile(*Lam2("a", "b", Var("a")), 1, {})
          .status()
          .IsInvalidArgument());
}

TEST(CompiledLambdaTest, NonScalarNodeIsInvalidArgument) {
  EXPECT_TRUE(CompiledLambda::Compile(*Lam("x", Count(Source("xs"))), 1, {})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace matryoshka::lang
