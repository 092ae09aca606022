#include "lang/lowering_phase.h"

#include <optional>
#include <stdexcept>
#include <variant>

#include "core/matryoshka.h"
#include "engine/ops.h"
#include "engine/shuffle.h"
#include "lang/compiled_lambda.h"

namespace matryoshka::lang {

namespace {

using engine::Bag;

/// What a name can denote at lowering time.
struct NestedRuntime {
  core::InnerScalar<Value> keys;
  core::InnerBag<Value> values;
};

using RuntimeValue =
    std::variant<Value, Bag<Value>, core::InnerScalar<Value>,
                 core::InnerBag<Value>, std::shared_ptr<NestedRuntime>>;

using Env = std::unordered_map<std::string, RuntimeValue>;

/// The keyed ops' views of a (key, value) 2-tuple row.
constexpr auto kToPair = [](const Value& x) {
  return std::pair<Value, Value>(x.Field(0), x.Field(1));
};
constexpr auto kFromPair = [](const std::pair<Value, Value>& p) {
  return Value::MakeTuple({p.first, p.second});
};

/// A compiled element lambda as a filter predicate and as a flatMap UDF.
auto AsPredicate(CompiledLambda fn) {
  return [fn = std::move(fn)](const Value& x) { return fn(x).AsBool(); };
}
auto AsFlatMapper(CompiledLambda fn) {
  return [fn = std::move(fn)](const Value& x) { return fn(x).TakeTuple(); };
}

class Interpreter {
 public:
  Interpreter(engine::Cluster* cluster, core::OptimizerOptions options,
              const std::unordered_map<std::string, Bag<Value>>& sources)
      : cluster_(cluster), options_(options), sources_(sources) {}

  Result<std::vector<Value>> Run(const Program& program) {
    for (const Stmt& s : program.stmts) {
      MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue v, Eval(*s.expr, env_));
      env_[s.name] = std::move(v);
      if (std::holds_alternative<core::InnerScalar<Value>>(env_[s.name]) ||
          std::holds_alternative<core::InnerBag<Value>>(env_[s.name])) {
        // Remember which nested bag a lifted result came from so the final
        // collection can attach the group keys.
        lifted_origin_[s.name] = current_nested_;
      }
    }
    auto it = env_.find(program.result);
    if (it == env_.end()) {
      return Status::InvalidArgument("unbound result '" + program.result +
                                     "'");
    }
    auto out = CollectResult(program.result, it->second);
    if (!cluster_->ok()) return cluster_->status();
    return out;
  }

 private:
  Result<std::vector<Value>> CollectResult(const std::string& name,
                                           const RuntimeValue& rv) {
    std::vector<Value> out;
    if (const auto* v = std::get_if<Value>(&rv)) {
      out.push_back(*v);
      return out;
    }
    if (const auto* bag = std::get_if<Bag<Value>>(&rv)) {
      return engine::Collect(*bag);
    }
    if (const auto* is = std::get_if<core::InnerScalar<Value>>(&rv)) {
      auto origin = lifted_origin_[name];
      if (origin != nullptr) {
        auto pairs = engine::Collect(core::ZipWithKeys(origin->keys, *is));
        for (auto& [k, v] : pairs) out.push_back(Value::MakeTuple({k, v}));
        return out;
      }
      return engine::Collect(is->Flatten());
    }
    if (const auto* ib = std::get_if<core::InnerBag<Value>>(&rv)) {
      return engine::Collect(ib->Flatten());
    }
    return Status::Unsupported("program result is a nested bag; map it");
  }

  /// Compiles an element lambda against the driver scalars it captures.
  /// Every captured name must denote a driver scalar here (InnerScalar
  /// captures were rewritten to liftedMapWithClosure by the parsing phase),
  /// except `closure`, the InnerScalar a liftedMapWithClosure binds as one
  /// more argument. A name bound nowhere fails the compile.
  Result<CompiledLambda> CompileElement(const Lambda& lam,
                                        const std::string& closure = "") {
    CompiledLambda::Captures captured;
    for (const std::string& c : lam.captures) {
      if (c == closure) continue;
      auto it = env_.find(c);
      if (it == env_.end()) continue;
      if (const auto* v = std::get_if<Value>(&it->second)) {
        captured[c] = *v;
      } else if (!std::holds_alternative<core::InnerScalar<Value>>(
                     it->second)) {
        return Status::Unsupported("element lambda captures non-scalar '" +
                                   c + "'");
      } else {
        return Status::Internal(
            "InnerScalar capture '" + c +
            "' not rewritten to liftedMapWithClosure by the parsing phase");
      }
    }
    return CompiledLambda::Compile(lam, 1, captured, closure);
  }

  Result<RuntimeValue> Eval(const Expr& e, Env& env) {
    switch (e.kind) {
      case ExprKind::kSource: {
        auto it = sources_.find(e.name);
        if (it == sources_.end()) {
          return Status::InvalidArgument("unbound source '" + e.name + "'");
        }
        return RuntimeValue(it->second);
      }
      case ExprKind::kVar: {
        auto it = env.find(e.name);
        if (it == env.end()) {
          return Status::InvalidArgument("unbound variable '" + e.name + "'");
        }
        return it->second;
      }
      case ExprKind::kConst:
        return RuntimeValue(e.literal);

      // --- flat engine operations ---
      case ExprKind::kMap:
      case ExprKind::kFilter:
      case ExprKind::kFlatMap:
      case ExprKind::kReduceByKey:
      case ExprKind::kDistinct:
      case ExprKind::kCount: {
        MATRYOSHKA_ASSIGN_OR_RETURN(Bag<Value> in, EvalBag(*e.inputs[0], env));
        if (e.kind == ExprKind::kDistinct) {
          return RuntimeValue(engine::Distinct(in));
        }
        if (e.kind == ExprKind::kCount) {
          return RuntimeValue(Value(engine::Count(in)));
        }
        if (e.kind == ExprKind::kReduceByKey) {
          MATRYOSHKA_ASSIGN_OR_RETURN(
              CompiledLambda merge, CompiledLambda::Compile(*e.lambda2, 2, {}));
          auto red = engine::ReduceByKey(engine::Map(in, kToPair),
                                         std::move(merge));
          return RuntimeValue(engine::Map(red, kFromPair));
        }
        MATRYOSHKA_ASSIGN_OR_RETURN(CompiledLambda fn,
                                    CompileElement(*e.lambda));
        if (e.kind == ExprKind::kMap) {
          return RuntimeValue(engine::Map(in, std::move(fn)));
        }
        if (e.kind == ExprKind::kFilter) {
          return RuntimeValue(engine::Filter(in, AsPredicate(std::move(fn))));
        }
        return RuntimeValue(engine::FlatMap(in, AsFlatMapper(std::move(fn))));
      }
      case ExprKind::kUnion: {
        MATRYOSHKA_ASSIGN_OR_RETURN(Bag<Value> a, EvalBag(*e.inputs[0], env));
        MATRYOSHKA_ASSIGN_OR_RETURN(Bag<Value> b, EvalBag(*e.inputs[1], env));
        return RuntimeValue(engine::Union(a, b));
      }
      case ExprKind::kBinOp: {
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue a, Eval(*e.inputs[0], env));
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue b, Eval(*e.inputs[1], env));
        const auto* va = std::get_if<Value>(&a);
        const auto* vb = std::get_if<Value>(&b);
        if (va == nullptr || vb == nullptr) {
          return Status::InvalidArgument(
              "binop over non-scalars survived the parsing phase");
        }
        return RuntimeValue(EvalRowBinOp(e.op, *va, *vb));
      }
      case ExprKind::kTupleMake: {
        Value::Tuple t;
        for (const auto& in : e.inputs) {
          MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue v, Eval(*in, env));
          const auto* sv = std::get_if<Value>(&v);
          if (sv == nullptr) return Status::InvalidArgument("tuple of bags");
          t.push_back(*sv);
        }
        return RuntimeValue(Value(std::move(t)));
      }
      case ExprKind::kTupleField: {
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue v, Eval(*e.inputs[0], env));
        const auto* sv = std::get_if<Value>(&v);
        if (sv == nullptr) return Status::InvalidArgument("field of a bag");
        return RuntimeValue(sv->Field(e.index));
      }

      // --- the nesting primitives (the parsing phase's output) ---
      case ExprKind::kGroupByKeyIntoNestedBag: {
        MATRYOSHKA_ASSIGN_OR_RETURN(Bag<Value> in, EvalBag(*e.inputs[0], env));
        auto kv = engine::Map(in, kToPair, 0.25);
        auto nested = core::GroupByKeyIntoNestedBag(kv, options_);
        auto rt = std::make_shared<NestedRuntime>(
            NestedRuntime{nested.keys(), nested.values()});
        return RuntimeValue(rt);
      }
      case ExprKind::kMapWithLiftedUdf: {
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue in, Eval(*e.inputs[0], env));
        const Lambda& lam = *e.lambda;
        Env local = env;
        std::shared_ptr<NestedRuntime> nested;
        if (auto* nb = std::get_if<std::shared_ptr<NestedRuntime>>(&in)) {
          nested = *nb;
          local[lam.params[0]] = nested->keys;
          local[lam.params[1]] = nested->values;
        } else if (auto* bag = std::get_if<Bag<Value>>(&in)) {
          auto lifted = core::LiftFlatBag(*bag, options_);
          local[lam.params[0]] = lifted;
        } else {
          return Status::InvalidArgument(
              "mapWithLiftedUDF over a non-bag input");
        }
        current_nested_ = nested;
        // The lifted UDF runs exactly ONCE, here, over all groups.
        for (const Stmt& s : lam.body) {
          MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue v, Eval(*s.expr, local));
          local[s.name] = std::move(v);
        }
        return Eval(*lam.result, local);
      }
      case ExprKind::kLiftedMap:
      case ExprKind::kLiftedFilter:
      case ExprKind::kLiftedFlatMap:
      case ExprKind::kLiftedMapWithClosure:
      case ExprKind::kLiftedReduceByKey:
      case ExprKind::kLiftedDistinct:
      case ExprKind::kLiftedCount: {
        MATRYOSHKA_ASSIGN_OR_RETURN(core::InnerBag<Value> in,
                                    EvalInnerBag(*e.inputs[0], env));
        if (e.kind == ExprKind::kLiftedDistinct) {
          return RuntimeValue(core::LiftedDistinct(in));
        }
        if (e.kind == ExprKind::kLiftedCount) {
          return RuntimeValue(core::UnaryScalarOp(
              core::LiftedCount(in), [](int64_t c) { return Value(c); }));
        }
        if (e.kind == ExprKind::kLiftedReduceByKey) {
          MATRYOSHKA_ASSIGN_OR_RETURN(
              CompiledLambda merge, CompiledLambda::Compile(*e.lambda2, 2, {}));
          auto red = core::LiftedReduceByKey(core::LiftedMap(in, kToPair),
                                             std::move(merge));
          return RuntimeValue(core::LiftedMap(red, kFromPair));
        }
        if (e.kind == ExprKind::kLiftedMapWithClosure) {
          auto cit = env.find(e.name);
          if (cit == env.end() ||
              !std::holds_alternative<core::InnerScalar<Value>>(cit->second)) {
            return Status::InvalidArgument("closure '" + e.name +
                                           "' is not an InnerScalar");
          }
          MATRYOSHKA_ASSIGN_OR_RETURN(CompiledLambda fn,
                                      CompileElement(*e.lambda, e.name));
          return RuntimeValue(core::MapWithClosure(
              in, std::get<core::InnerScalar<Value>>(cit->second),
              std::move(fn)));
        }
        MATRYOSHKA_ASSIGN_OR_RETURN(CompiledLambda fn,
                                    CompileElement(*e.lambda));
        if (e.kind == ExprKind::kLiftedMap) {
          return RuntimeValue(core::LiftedMap(in, std::move(fn)));
        }
        if (e.kind == ExprKind::kLiftedFilter) {
          return RuntimeValue(
              core::LiftedFilter(in, AsPredicate(std::move(fn))));
        }
        return RuntimeValue(
            core::LiftedFlatMap(in, AsFlatMapper(std::move(fn))));
      }
      case ExprKind::kBinaryScalarOp: {
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue a, Eval(*e.inputs[0], env));
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue b, Eval(*e.inputs[1], env));
        const BinOpKind op = e.op;
        const auto* ia = std::get_if<core::InnerScalar<Value>>(&a);
        const auto* ib = std::get_if<core::InnerScalar<Value>>(&b);
        if (ia != nullptr && ib != nullptr) {
          return RuntimeValue(core::BinaryScalarOp(
              *ia, *ib, [op](const Value& x, const Value& y) {
                return EvalRowBinOp(op, x, y);
              }));
        }
        if (ia != nullptr) {
          const auto* vb = std::get_if<Value>(&b);
          if (vb == nullptr) return Status::InvalidArgument("bad operand");
          const Value c = *vb;
          return RuntimeValue(core::UnaryScalarOp(
              *ia,
              [op, c](const Value& x) { return EvalRowBinOp(op, x, c); }));
        }
        if (ib != nullptr) {
          const auto* va = std::get_if<Value>(&a);
          if (va == nullptr) return Status::InvalidArgument("bad operand");
          const Value c = *va;
          return RuntimeValue(core::UnaryScalarOp(
              *ib,
              [op, c](const Value& y) { return EvalRowBinOp(op, c, y); }));
        }
        return Status::InvalidArgument("binaryScalarOp over plain scalars");
      }

      case ExprKind::kLiftedWhile: {
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue init,
                                    Eval(*e.inputs[0], env));
        const Lambda& body = *e.lambda;
        const std::string& state_name = body.params[0];
        // One lifted loop drives the iterations of ALL groups (Listing 4);
        // the body is re-lowered each iteration against the current state.
        Status body_status;  // first error inside the body, if any
        auto run_body = [&](const core::LiftingContext& ctx, Env& local)
            -> std::optional<std::pair<RuntimeValue, RuntimeValue>> {
          (void)ctx;
          for (const Stmt& s : body.body) {
            auto v = Eval(*s.expr, local);
            if (!v.ok()) {
              body_status = v.status();
              return std::nullopt;
            }
            local[s.name] = std::move(*v);
          }
          auto next = Eval(*body.result->inputs[0], local);
          auto cond = Eval(*body.result->inputs[1], local);
          if (!next.ok() || !cond.ok()) {
            body_status = next.ok() ? cond.status() : next.status();
            return std::nullopt;
          }
          return std::make_pair(std::move(*next), std::move(*cond));
        };

        if (auto* ib = std::get_if<core::InnerBag<Value>>(&init)) {
          auto result = core::LiftedWhile(
              *ib,
              [&](const core::LiftingContext& ctx,
                  const core::InnerBag<Value>& state, int64_t) {
                Env local = env;
                local[state_name] = state;
                auto out = run_body(ctx, local);
                if (!out.has_value()) {
                  // Poison the cluster so the loop terminates; the status
                  // is surfaced below.
                  cluster_->Fail(Status::Internal("lifted while body failed"));
                  auto cond_false = core::UnaryScalarOp(
                      core::LiftedCount(state), [](int64_t) { return false; });
                  return std::make_pair(state, cond_false);
                }
                auto next = std::get<core::InnerBag<Value>>(out->first);
                auto cond_vals =
                    std::get<core::InnerScalar<Value>>(out->second);
                auto cond = core::UnaryScalarOp(
                    cond_vals, [](const Value& v) { return v.AsBool(); });
                return std::make_pair(next, cond);
              });
          if (!body_status.ok()) return body_status;
          return RuntimeValue(result);
        }
        if (auto* is = std::get_if<core::InnerScalar<Value>>(&init)) {
          auto result = core::LiftedWhileScalar(
              *is,
              [&](const core::LiftingContext& ctx,
                  const core::InnerScalar<Value>& state, int64_t) {
                Env local = env;
                local[state_name] = state;
                auto out = run_body(ctx, local);
                if (!out.has_value()) {
                  cluster_->Fail(Status::Internal("lifted while body failed"));
                  auto cond_false = core::UnaryScalarOp(
                      state, [](const Value&) { return false; });
                  return std::make_pair(state, cond_false);
                }
                auto next = std::get<core::InnerScalar<Value>>(out->first);
                auto cond_vals =
                    std::get<core::InnerScalar<Value>>(out->second);
                auto cond = core::UnaryScalarOp(
                    cond_vals, [](const Value& v) { return v.AsBool(); });
                return std::make_pair(next, cond);
              });
          if (!body_status.ok()) return body_status;
          return RuntimeValue(result);
        }
        return Status::InvalidArgument(
            "lifted while over a non-lifted initial state");
      }

      case ExprKind::kLiftedIf: {
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue cond_rv,
                                    Eval(*e.inputs[0], env));
        MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue state_rv,
                                    Eval(*e.inputs[1], env));
        const auto* cond_is = std::get_if<core::InnerScalar<Value>>(&cond_rv);
        if (cond_is == nullptr) {
          return Status::InvalidArgument("lifted if over a non-lifted cond");
        }
        auto cond = core::UnaryScalarOp(
            *cond_is, [](const Value& v) { return v.AsBool(); });
        Status body_status;
        auto run_branch = [&](const Lambda& br, RuntimeValue routed)
            -> std::optional<RuntimeValue> {
          Env local = env;
          local[br.params[0]] = std::move(routed);
          for (const Stmt& s : br.body) {
            auto v = Eval(*s.expr, local);
            if (!v.ok()) {
              body_status = v.status();
              return std::nullopt;
            }
            local[s.name] = std::move(*v);
          }
          auto res = Eval(*br.result, local);
          if (!res.ok()) {
            body_status = res.status();
            return std::nullopt;
          }
          return std::move(*res);
        };
        if (auto* ib = std::get_if<core::InnerBag<Value>>(&state_rv)) {
          auto result = core::LiftedIf(
              cond, *ib,
              [&](const core::InnerBag<Value>& routed) {
                auto out = run_branch(*e.lambda, RuntimeValue(routed));
                return out.has_value()
                           ? std::get<core::InnerBag<Value>>(*out)
                           : routed;
              },
              [&](const core::InnerBag<Value>& routed) {
                auto out = run_branch(*e.lambda2, RuntimeValue(routed));
                return out.has_value()
                           ? std::get<core::InnerBag<Value>>(*out)
                           : routed;
              });
          if (!body_status.ok()) return body_status;
          return RuntimeValue(result);
        }
        if (auto* is = std::get_if<core::InnerScalar<Value>>(&state_rv)) {
          auto result = core::LiftedIfScalar(
              cond, *is,
              [&](const core::InnerScalar<Value>& routed) {
                auto out = run_branch(*e.lambda, RuntimeValue(routed));
                return out.has_value()
                           ? std::get<core::InnerScalar<Value>>(*out)
                           : routed;
              },
              [&](const core::InnerScalar<Value>& routed) {
                auto out = run_branch(*e.lambda2, RuntimeValue(routed));
                return out.has_value()
                           ? std::get<core::InnerScalar<Value>>(*out)
                           : routed;
              });
          if (!body_status.ok()) return body_status;
          return RuntimeValue(result);
        }
        return Status::InvalidArgument("lifted if over a non-lifted state");
      }

      // --- surface operations the parsing phase must have removed ---
      case ExprKind::kGroupByKey:
        return Status::InvalidArgument(
            "raw groupByKey reached the lowering phase; run ParsingPhase");
      default:
        return Status::InvalidArgument("cannot lower: " + ToString(e));
    }
  }

  Result<Bag<Value>> EvalBag(const Expr& e, Env& env) {
    MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue v, Eval(e, env));
    if (auto* bag = std::get_if<Bag<Value>>(&v)) return *bag;
    return Status::InvalidArgument("expected a flat bag: " + ToString(e));
  }

  Result<core::InnerBag<Value>> EvalInnerBag(const Expr& e, Env& env) {
    MATRYOSHKA_ASSIGN_OR_RETURN(RuntimeValue v, Eval(e, env));
    if (auto* ib = std::get_if<core::InnerBag<Value>>(&v)) return *ib;
    return Status::InvalidArgument("expected a lifted bag: " + ToString(e));
  }

  engine::Cluster* cluster_;
  core::OptimizerOptions options_;
  const std::unordered_map<std::string, Bag<Value>>& sources_;
  Env env_;
  std::shared_ptr<NestedRuntime> current_nested_;
  std::unordered_map<std::string, std::shared_ptr<NestedRuntime>>
      lifted_origin_;
};

}  // namespace

LoweringPhase::LoweringPhase(engine::Cluster* cluster,
                             core::OptimizerOptions options)
    : cluster_(cluster), options_(options) {}

void LoweringPhase::BindSource(const std::string& name,
                               engine::Bag<Value> bag) {
  sources_.insert_or_assign(name, std::move(bag));
}

Result<std::vector<Value>> LoweringPhase::Execute(const Program& program) {
  Interpreter interp(cluster_, options_, sources_);
  try {
    return interp.Run(program);
  } catch (const std::invalid_argument& e) {
    // A value of the wrong shape met on the driver thread (pool bodies
    // already fail the cluster through GuardedParallelFor).
    Status failure = Status::InvalidArgument(e.what());
    cluster_->Fail(failure);
    return failure;
  }
}

}  // namespace matryoshka::lang
