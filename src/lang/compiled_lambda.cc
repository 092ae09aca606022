#include "lang/compiled_lambda.h"

#include <algorithm>
#include <utility>

namespace matryoshka::lang {

Result<CompiledLambda> CompiledLambda::Compile(const Lambda& lam,
                                               std::size_t arity,
                                               const Captures& captures,
                                               const std::string& closure) {
  if (lam.params.size() != arity) {
    return Status::InvalidArgument(
        "element lambda takes " + std::to_string(lam.params.size()) +
        " parameters where " + std::to_string(arity) + " are expected");
  }
  CompiledLambda out;
  out.num_args_ = arity + (closure.empty() ? 0 : 1);
  Scope scope;
  for (const auto& [name, value] : captures) scope[name] = out.Constant(value);
  if (!closure.empty()) scope[closure] = Operand{false, arity};
  for (std::size_t i = 0; i < arity; ++i) {
    scope[lam.params[i]] = Operand{false, i};
  }
  for (const Stmt& s : lam.body) {
    MATRYOSHKA_ASSIGN_OR_RETURN(scope[s.name], out.CompileExpr(*s.expr, scope));
  }
  MATRYOSHKA_ASSIGN_OR_RETURN(Operand result,
                              out.CompileExpr(*lam.result, scope));
  const bool last_step_is_result =
      !out.steps_.empty() && !result.constant &&
      result.field == Operand::kWhole &&
      result.index == out.num_args_ + out.steps_.size() - 1;
  if (!last_step_is_result) out.Emit(Step::Kind::kCopy, {}, {result});
  return out;
}

Result<CompiledLambda::Operand> CompiledLambda::CompileExpr(
    const Expr& e, const Scope& scope) {
  switch (e.kind) {
    case ExprKind::kConst:
      return Constant(e.literal);
    case ExprKind::kVar: {
      auto it = scope.find(e.name);
      if (it == scope.end()) {
        return Status::InvalidArgument("unbound name '" + e.name +
                                       "' in element lambda");
      }
      return it->second;
    }
    case ExprKind::kTupleField: {
      MATRYOSHKA_ASSIGN_OR_RETURN(Operand in,
                                  CompileExpr(*e.inputs[0], scope));
      // A field of a field reads the inner field out as a step first.
      if (in.field != Operand::kWhole) in = Emit(Step::Kind::kCopy, {}, {in});
      in.field = e.index;
      return in;
    }
    case ExprKind::kBinOp: {
      MATRYOSHKA_ASSIGN_OR_RETURN(Operand a, CompileExpr(*e.inputs[0], scope));
      MATRYOSHKA_ASSIGN_OR_RETURN(Operand b, CompileExpr(*e.inputs[1], scope));
      return Emit(Step::Kind::kBinOp, e.op, {a, b});
    }
    case ExprKind::kTupleMake: {
      std::vector<Operand> parts;
      for (const ExprPtr& in : e.inputs) {
        MATRYOSHKA_ASSIGN_OR_RETURN(Operand part, CompileExpr(*in, scope));
        parts.push_back(part);
      }
      return Emit(Step::Kind::kTuple, {}, parts);
    }
    default:
      return Status::InvalidArgument("non-scalar node in element lambda: " +
                                     ToString(e));
  }
}

CompiledLambda::Operand CompiledLambda::Emit(Step::Kind kind, BinOpKind op,
                                             const std::vector<Operand>& in) {
  steps_.push_back(Step{kind, op, operands_.size(), in.size()});
  operands_.insert(operands_.end(), in.begin(), in.end());
  return Operand{false, num_args_ + steps_.size() - 1};
}

CompiledLambda::Operand CompiledLambda::Constant(const Value& v) {
  constants_.push_back(v);
  return Operand{true, constants_.size() - 1};
}

Value CompiledLambda::RunWithScratch(Slots args) const {
  const std::size_t n = num_args_ + steps_.size() - 1;
  if (n <= kInlineSlots) {
    const Value* on_stack[kInlineSlots] = {};
    std::copy_n(args, num_args_, on_stack);
    return RunFrom(0, on_stack);
  }
  std::vector<const Value*> on_heap(args, args + num_args_);
  on_heap.resize(n);
  return RunFrom(0, on_heap.data());
}

// Each step's result lives in its own frame, so it is built once, never
// default-constructed or reassigned, and released as the call unwinds.
Value CompiledLambda::RunFrom(std::size_t step, const Value** slots) const {
  if (step + 1 == steps_.size()) return Eval(steps_[step], slots);
  const Value result = Eval(steps_[step], slots);
  slots[num_args_ + step] = &result;
  return RunFrom(step + 1, slots);
}

Value CompiledLambda::BuildTuple(const Step& s, Slots slots) const {
  const Operand* in = operands_.data() + s.first;
  Value::Tuple t;
  t.reserve(s.count);
  for (std::size_t i = 0; i < s.count; ++i) t.push_back(Read(in[i], slots));
  return Value(std::move(t));
}

}  // namespace matryoshka::lang
