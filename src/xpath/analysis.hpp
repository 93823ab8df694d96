// Static analysis over a Query: per-expression context dependence (what the
// context-value-table evaluator keys its tables on) and the global syntactic
// measures that the fragment definitions of the paper regulate (Defs 2.5,
// 2.6, 5.1, 6.1).

#ifndef GKX_XPATH_ANALYSIS_HPP_
#define GKX_XPATH_ANALYSIS_HPP_

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "xpath/ast.hpp"

namespace gkx::xpath {

/// What part of the evaluation context ⟨node, position, size⟩ an
/// expression's value depends on.
enum class ContextDependence {
  kNone,  // constant (literals, absolute paths, true(), ...)
  kNode,  // depends on the context node only (all relative paths, ...)
  kFull,  // uses position() and/or last() free of any step rebinding
};

/// A step predicate that keeps candidates by rank alone, so it can be
/// applied as a slice of the candidate list (Lemma 5.4's position tests,
/// with no per-candidate evaluation). `[c]`, `position() = last()` and
/// `position() op c` — op one of = < <= > >=, c a numeric constant, on
/// either side — keep exactly the candidates whose 1-based rank lies in
/// [lo, hi], derived as XPath's double comparison decides it: fractional,
/// non-positive, NaN and infinite constants give the exact (possibly
/// empty) integer interval. `!=` and every other predicate are not rank
/// selections and evaluate per candidate.
struct RankSelection {
  static constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();

  bool active = false;  // false: not a rank selection
  bool last = false;    // position() = last(): the final candidate only
  int64_t lo = 1;
  int64_t hi = kUnbounded;  // lo > hi: selects nothing

  /// Classifies a predicate expression (inactive if it is not one of the
  /// shapes above).
  static RankSelection Of(const Expr& predicate);
};

/// Per-expression traits, indexed by Expr::id().
struct ExprTraits {
  ContextDependence dependence = ContextDependence::kNone;
  ValueType type = ValueType::kBoolean;
  bool uses_position = false;  // free position() occurrence
  bool uses_last = false;      // free last() occurrence
  /// Set on step predicates only: the rank selection the predicate is.
  RankSelection rank;
};

/// Whole-query syntactic measures.
struct QueryAnalysis {
  std::vector<ExprTraits> expr_traits;

  int size = 0;                     // |Q| = expr nodes + steps
  int max_predicates_per_step = 0;  // k of the longest χ::t[e1]...[ek]
  int max_not_depth = 0;            // nesting depth of not()
  int max_arith_depth = 0;          // nesting of arithmetic ops / unary minus
  int max_concat_depth = 0;
  int max_concat_arity = 0;

  std::array<bool, kNumAxes> axes_used = {};
  std::set<Function> functions_used;

  bool has_predicates = false;
  bool has_negation = false;         // any not()
  bool has_union = false;
  bool has_string_literal = false;
  bool has_number_literal = false;
  bool has_arithmetic = false;
  bool has_relop = false;
  bool relop_with_boolean_operand = false;     // pXPath restriction 3
  bool relop_with_nonnumber_operand = false;   // WF requires nexpr RelOp nexpr
  bool has_position_or_last = false;

  const ExprTraits& traits(const Expr& expr) const {
    GKX_CHECK(expr.id() >= 0 &&
              expr.id() < static_cast<int>(expr_traits.size()));
    return expr_traits[static_cast<size_t>(expr.id())];
  }
};

/// Analyzes a query (linear in |Q|).
QueryAnalysis Analyze(const Query& query);

}  // namespace gkx::xpath

#endif  // GKX_XPATH_ANALYSIS_HPP_
