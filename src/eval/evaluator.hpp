// The evaluator interface shared by the five engines of this repository
// (naive, context-value-table, Core-XPath-linear, NAuxPDA, parallel), plus
// the step-application machinery common to the recursive engines: axis
// enumeration in axis order, predicate chains with position re-ranking
// between iterated predicates, the numeric-predicate coercion
// ([2] == [position()=2]), and rank selections applied as slices.

#ifndef GKX_EVAL_EVALUATOR_HPP_
#define GKX_EVAL_EVALUATOR_HPP_

#include <functional>
#include <string_view>
#include <vector>

#include "base/status.hpp"
#include "eval/axes.hpp"
#include "eval/context.hpp"
#include "eval/value.hpp"
#include "xpath/analysis.hpp"
#include "xpath/ast.hpp"

namespace gkx::eval {

/// Common interface. Evaluators are stateful per call but reusable; they are
/// not thread-safe unless documented otherwise.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Short identifier ("naive", "cvt-lazy", "core-linear", "pda", ...).
  virtual std::string_view name() const = 0;

  /// Evaluates `query` on `doc` in context `ctx`. Returns kUnsupported if the
  /// query falls outside this engine's fragment.
  virtual Result<Value> Evaluate(const xml::Document& doc,
                                 const xpath::Query& query,
                                 const Context& ctx) = 0;

  /// Evaluate in the initial context ⟨root, 1, 1⟩.
  Result<Value> EvaluateAtRoot(const xml::Document& doc,
                               const xpath::Query& query) {
    return Evaluate(doc, query, RootContext(doc));
  }

  /// Evaluate at root and require a node-set result.
  Result<NodeSet> EvaluateNodeSet(const xml::Document& doc,
                                  const xpath::Query& query);
};

/// Truth of a predicate value in a context: numbers are implicit position
/// tests ([2] means [position()=2]); everything else is boolean().
bool PredicateTruth(const Value& value, const Context& ctx);

/// Evaluation of a predicate expression in a context: Result<bool>.
using PredicateFn =
    std::function<Result<bool>(const xpath::Expr&, const Context&)>;

/// Applies one location step from `origin`: enumerates axis::test candidates
/// in axis order, filters through the predicate chain (positions re-ranked
/// among survivors between consecutive predicates), and appends the
/// survivors to *out in axis order.
///
/// `ranks`, when given, is the analysis of the query `step` belongs to:
/// every predicate its traits mark as a rank selection is applied as a
/// slice of the candidate list by index, with no predicate evaluation, and
/// when the step's first predicate bounds the rank from above the axis
/// walk stops after that many candidates. nullptr evaluates every
/// predicate per candidate over the whole axis — the spec-literal reading.
Status ApplyStep(const xml::Document& doc, const xpath::Step& step,
                 const ResolvedTest& test, xml::NodeId origin,
                 const PredicateFn& eval_predicate,
                 const xpath::QueryAnalysis* ranks,
                 std::vector<xml::NodeId>* out);

}  // namespace gkx::eval

#endif  // GKX_EVAL_EVALUATOR_HPP_
