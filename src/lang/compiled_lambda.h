#ifndef MATRYOSHKA_LANG_COMPILED_LAMBDA_H_
#define MATRYOSHKA_LANG_COMPILED_LAMBDA_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "lang/expr.h"
#include "lang/value.h"

namespace matryoshka::lang {

/// Scalar binop semantics: the one definition behind every src/lang binop,
/// in element lambdas, driver scalars and binaryScalarOp alike.
inline Value EvalRowBinOp(BinOpKind op, const Value& a, const Value& b) {
  switch (op) {
    case BinOpKind::kAdd:
      if (a.is_int() && b.is_int()) return Value(a.AsInt() + b.AsInt());
      return Value(a.AsDouble() + b.AsDouble());
    case BinOpKind::kSub:
      if (a.is_int() && b.is_int()) return Value(a.AsInt() - b.AsInt());
      return Value(a.AsDouble() - b.AsDouble());
    case BinOpKind::kMul:
      if (a.is_int() && b.is_int()) return Value(a.AsInt() * b.AsInt());
      return Value(a.AsDouble() * b.AsDouble());
    case BinOpKind::kDiv: {
      const double d = b.AsDouble();
      return Value(d == 0.0 ? 0.0 : a.AsDouble() / d);
    }
    case BinOpKind::kEq:
      return Value(a == b);
    case BinOpKind::kNe:
      return Value(a != b);
    case BinOpKind::kLt:
      return Value(a < b);
    case BinOpKind::kLe:
      return Value(a < b || a == b);
    case BinOpKind::kAnd:
      return Value(a.AsBool() && b.AsBool());
    case BinOpKind::kOr:
      return Value(a.AsBool() || b.AsBool());
  }
  MATRYOSHKA_CHECK(false) << "unknown binop";
  return Value();
}

/// An element lambda compiled once, at lowering time, into a short list of
/// steps whose last one builds the return value. Compile resolves every
/// name, so a call looks nothing up and walks no tree: each step applies one
/// binop, builds one tuple or copies one operand, and each operand reads an
/// argument, an earlier step's result or a constant by reference, or one
/// tuple field of it. A call builds each step result once, on its own
/// stack, so calls are const and safe from every pool worker at once, and
/// the evaluator allocates nothing while a call's arguments and step
/// results fit kInlineSlots (a tuple step allocates its tuple).
class CompiledLambda {
 public:
  /// The driver scalars a lambda captures, by name.
  using Captures = std::unordered_map<std::string, Value>;

  /// Compiles `lam`, which must take `arity` parameters. A non-empty
  /// `closure` names one more argument, passed after the parameters.
  /// Later bindings shadow earlier ones: `captures` (folded to constants),
  /// then the closure, then the parameters, then the let-bindings in body
  /// order. Returns InvalidArgument on a wrong parameter count, an unbound
  /// name or a node that is not scalar.
  static Result<CompiledLambda> Compile(const Lambda& lam, std::size_t arity,
                                        const Captures& captures,
                                        const std::string& closure = "");

  Value operator()(const Value& x) const {
    const Value* args[] = {&x};
    return Run(args, 1);
  }
  Value operator()(const Value& a, const Value& b) const {
    const Value* args[] = {&a, &b};
    return Run(args, 2);
  }

 private:
  /// A call's slots: its arguments, then the results of its steps.
  using Slots = const Value* const*;
  /// Slots a call keeps on its stack before it takes the heap.
  static constexpr std::size_t kInlineSlots = 8;

  struct Operand {
    static constexpr std::size_t kWhole = static_cast<std::size_t>(-1);

    bool constant = false;       // constants_[index], else slot `index`
    std::size_t index = 0;
    std::size_t field = kWhole;  // one tuple field, or the whole value
  };

  struct Step {
    enum class Kind { kBinOp, kTuple, kCopy };

    Kind kind = Kind::kCopy;
    BinOpKind op = BinOpKind::kAdd;
    std::size_t first = 0;  // operands_[first, first + count)
    std::size_t count = 0;
  };

  using Scope = std::unordered_map<std::string, Operand>;

  Result<Operand> CompileExpr(const Expr& e, const Scope& scope);
  Operand Emit(Step::Kind kind, BinOpKind op, const std::vector<Operand>& in);
  Operand Constant(const Value& v);

  /// A one-step lambda runs inline, so the engine's feed loops inline it;
  /// longer lambdas run out of line.
  Value Run(Slots args, std::size_t num_args) const {
    MATRYOSHKA_DCHECK(num_args == num_args_);
    (void)num_args;
    if (steps_.size() == 1) return Eval(steps_.front(), args);
    return RunWithScratch(args);
  }
  Value RunWithScratch(Slots args) const;
  Value RunFrom(std::size_t step, const Value** slots) const;
  Value Eval(const Step& s, Slots slots) const {
    const Operand* in = operands_.data() + s.first;
    switch (s.kind) {
      case Step::Kind::kBinOp:
        return EvalRowBinOp(s.op, Read(in[0], slots), Read(in[1], slots));
      case Step::Kind::kTuple:
        return BuildTuple(s, slots);
      case Step::Kind::kCopy:
        break;
    }
    return Read(in[0], slots);
  }
  Value BuildTuple(const Step& s, Slots slots) const;
  const Value& Read(const Operand& o, Slots slots) const {
    const Value& v = o.constant ? constants_[o.index] : *slots[o.index];
    return o.field == Operand::kWhole ? v : v.Field(o.field);
  }

  std::size_t num_args_ = 0;
  std::vector<Step> steps_;
  std::vector<Operand> operands_;
  std::vector<Value> constants_;
};

}  // namespace matryoshka::lang

#endif  // MATRYOSHKA_LANG_COMPILED_LAMBDA_H_
