#ifndef MATRYOSHKA_LANG_LOWERING_PHASE_H_
#define MATRYOSHKA_LANG_LOWERING_PHASE_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/optimizer.h"
#include "engine/bag.h"
#include "lang/expr.h"
#include "lang/value.h"

namespace matryoshka::lang {

/// THE LOWERING PHASE (Sec. 4.1.2, performed at runtime): executes the
/// explicitly nested-parallel program produced by the parsing phase,
/// resolving every nesting primitive (groupByKeyIntoNestedBag,
/// mapWithLiftedUDF, lifted*, binaryScalarOp) to concrete flat operations
/// of the dataflow engine. Physical choices — broadcast vs. repartition tag
/// joins, partition counts — are made here, where intermediate
/// cardinalities are known (Sec. 8), via core::Optimizer.
///
/// This is the "SparkTranslator" box of the paper's Fig. 2, targeting the
/// in-repo engine.
class LoweringPhase {
 public:
  explicit LoweringPhase(engine::Cluster* cluster,
                         core::OptimizerOptions options = {});

  /// Binds a named source to an input bag. Bag elements are lang::Values
  /// (tuples for keyed data).
  void BindSource(const std::string& name, engine::Bag<Value> bag);

  /// Executes a parsing-phase output program and collects its result:
  ///  - a flat bag          -> its elements,
  ///  - a lifted scalar/bag from a mapWithLiftedUDF over a nested bag
  ///                        -> (group key, value) 2-tuples,
  ///  - a lifted scalar/bag over a lifted flat bag -> its values,
  ///  - a driver scalar     -> a single element.
  /// Surface-language bag ops that the parsing phase should have rewritten
  /// (a map-with-bag-ops, a groupByKey) fail with InvalidArgument: the
  /// lowering phase only understands the explicit plan. So do an element
  /// lambda that does not compile and a wrong-shaped value met on the
  /// driver thread (which also fails the cluster); one met in a pool body
  /// fails the cluster with kInternal, as any throwing UDF does.
  Result<std::vector<Value>> Execute(const Program& program);

 private:
  engine::Cluster* cluster_;
  core::OptimizerOptions options_;
  std::unordered_map<std::string, engine::Bag<Value>> sources_;
};

}  // namespace matryoshka::lang

#endif  // MATRYOSHKA_LANG_LOWERING_PHASE_H_
