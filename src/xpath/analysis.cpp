#include "xpath/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace gkx::xpath {
namespace {

ContextDependence MaxDep(ContextDependence a, ContextDependence b) {
  return static_cast<ContextDependence>(
      std::max(static_cast<int>(a), static_cast<int>(b)));
}

class Analyzer {
 public:
  explicit Analyzer(const Query& query) : query_(query) {
    analysis_.expr_traits.resize(static_cast<size_t>(query.num_exprs()));
  }

  QueryAnalysis Run() {
    Visit(query_.root());
    analysis_.size = query_.size();
    return std::move(analysis_);
  }

 private:
  // Returns the traits of `expr`, filling analysis_ along the way.
  // `arith_depth` bookkeeping: depth of the arithmetic-operator chain ending
  // at this node (counted downward from the nearest non-arithmetic ancestor).
  ExprTraits Visit(const Expr& expr) {
    ExprTraits traits;
    traits.type = StaticType(expr);

    switch (expr.kind()) {
      case Expr::Kind::kNumberLiteral:
        analysis_.has_number_literal = true;
        break;
      case Expr::Kind::kStringLiteral:
        analysis_.has_string_literal = true;
        break;
      case Expr::Kind::kNegate: {
        analysis_.has_arithmetic = true;
        ExprTraits operand = Visit(expr.As<NegateExpr>().operand());
        traits = Merge(traits, operand);
        RecordArithDepth(expr);
        break;
      }
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        ExprTraits lhs = Visit(binary.lhs());
        ExprTraits rhs = Visit(binary.rhs());
        traits = Merge(Merge(traits, lhs), rhs);
        if (IsArithmeticOp(binary.op())) {
          analysis_.has_arithmetic = true;
          RecordArithDepth(expr);
        } else if (IsRelationalOp(binary.op())) {
          analysis_.has_relop = true;
          const ValueType lt = StaticType(binary.lhs());
          const ValueType rt = StaticType(binary.rhs());
          if (lt == ValueType::kBoolean || rt == ValueType::kBoolean) {
            analysis_.relop_with_boolean_operand = true;
          }
          if (lt != ValueType::kNumber || rt != ValueType::kNumber) {
            analysis_.relop_with_nonnumber_operand = true;
          }
        }
        break;
      }
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        analysis_.functions_used.insert(call.function());
        for (size_t i = 0; i < call.arg_count(); ++i) {
          traits = Merge(traits, Visit(call.arg(i)));
        }
        switch (call.function()) {
          case Function::kPosition:
            traits.uses_position = true;
            traits.dependence = ContextDependence::kFull;
            analysis_.has_position_or_last = true;
            break;
          case Function::kLast:
            traits.uses_last = true;
            traits.dependence = ContextDependence::kFull;
            analysis_.has_position_or_last = true;
            break;
          case Function::kTrue:
          case Function::kFalse:
            break;
          case Function::kNot:
            analysis_.has_negation = true;
            break;
          case Function::kConcat:
            analysis_.max_concat_arity = std::max(
                analysis_.max_concat_arity, static_cast<int>(call.arg_count()));
            RecordConcatDepth(expr);
            break;
          case Function::kString:
          case Function::kNumber:
          case Function::kStringLength:
          case Function::kNormalizeSpace:
          case Function::kName:
          case Function::kLocalName:
            // Zero-argument forms read the context node.
            if (call.arg_count() == 0) {
              traits.dependence =
                  MaxDep(traits.dependence, ContextDependence::kNode);
            }
            break;
          default:
            break;
        }
        break;
      }
      case Expr::Kind::kPath: {
        const auto& path = expr.As<PathExpr>();
        traits.dependence = path.absolute() ? ContextDependence::kNone
                                            : ContextDependence::kNode;
        for (size_t i = 0; i < path.step_count(); ++i) {
          const Step& step = path.step(i);
          analysis_.axes_used[static_cast<size_t>(step.axis)] = true;
          analysis_.max_predicates_per_step =
              std::max(analysis_.max_predicates_per_step,
                       static_cast<int>(step.predicates.size()));
          if (!step.predicates.empty()) analysis_.has_predicates = true;
          for (const ExprPtr& predicate : step.predicates) {
            // Steps rebind the context: position()/last() inside a predicate
            // do not leak out, and the predicate sees the step's own nodes.
            Visit(*predicate);
            analysis_.expr_traits[static_cast<size_t>(predicate->id())].rank =
                RankSelection::Of(*predicate);
          }
        }
        break;
      }
      case Expr::Kind::kUnion: {
        analysis_.has_union = true;
        const auto& u = expr.As<UnionExpr>();
        for (size_t i = 0; i < u.branch_count(); ++i) {
          traits = Merge(traits, Visit(u.branch(i)));
        }
        break;
      }
    }

    analysis_.expr_traits[static_cast<size_t>(expr.id())] = traits;
    return traits;
  }

  // Joins child context info into the parent's traits (type stays the
  // parent's own).
  static ExprTraits Merge(ExprTraits parent, const ExprTraits& child) {
    parent.dependence = MaxDep(parent.dependence, child.dependence);
    parent.uses_position |= child.uses_position;
    parent.uses_last |= child.uses_last;
    return parent;
  }

  void RecordArithDepth(const Expr& expr) {
    analysis_.max_arith_depth =
        std::max(analysis_.max_arith_depth, ArithDepth(expr));
  }

  // Depth of the arithmetic chain rooted at `expr` (1 for a lone operator).
  int ArithDepth(const Expr& expr) {
    switch (expr.kind()) {
      case Expr::Kind::kNegate:
        return 1 + ArithDepth(expr.As<NegateExpr>().operand());
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        if (!IsArithmeticOp(binary.op())) return 0;
        return 1 + std::max(ArithDepth(binary.lhs()), ArithDepth(binary.rhs()));
      }
      default:
        return 0;
    }
  }

  void RecordConcatDepth(const Expr& expr) {
    analysis_.max_concat_depth =
        std::max(analysis_.max_concat_depth, ConcatDepth(expr));
  }

  int ConcatDepth(const Expr& expr) {
    if (expr.kind() != Expr::Kind::kFunctionCall) return 0;
    const auto& call = expr.As<FunctionCall>();
    if (call.function() != Function::kConcat) return 0;
    int max_child = 0;
    for (size_t i = 0; i < call.arg_count(); ++i) {
      max_child = std::max(max_child, ConcatDepth(call.arg(i)));
    }
    return 1 + max_child;
  }

  const Query& query_;
  QueryAnalysis analysis_;
};

/// Computes not() nesting depth over the whole tree (crossing any construct,
/// per Theorem 5.9's "maximum depth of nested occurrences").
int NotDepth(const Expr& expr) {
  int self = 0;
  int children = 0;
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
    case Expr::Kind::kStringLiteral:
      return 0;
    case Expr::Kind::kNegate:
      return NotDepth(expr.As<NegateExpr>().operand());
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      return std::max(NotDepth(binary.lhs()), NotDepth(binary.rhs()));
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      for (size_t i = 0; i < call.arg_count(); ++i) {
        children = std::max(children, NotDepth(call.arg(i)));
      }
      if (call.function() == Function::kNot) self = 1;
      return self + children;
    }
    case Expr::Kind::kPath: {
      const auto& path = expr.As<PathExpr>();
      for (size_t i = 0; i < path.step_count(); ++i) {
        for (const ExprPtr& predicate : path.step(i).predicates) {
          children = std::max(children, NotDepth(*predicate));
        }
      }
      return children;
    }
    case Expr::Kind::kUnion: {
      const auto& u = expr.As<UnionExpr>();
      for (size_t i = 0; i < u.branch_count(); ++i) {
        children = std::max(children, NotDepth(u.branch(i)));
      }
      return children;
    }
  }
  return 0;
}

/// The value of a numeric constant: a number literal, or unary minus and
/// arithmetic over constants (so `-1`, `0 div 0` and `1 div 0` count).
/// The operations are the evaluator's IEEE double ones.
std::optional<double> NumericConstant(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
      return expr.As<NumberLiteral>().value();
    case Expr::Kind::kNegate: {
      auto operand = NumericConstant(expr.As<NegateExpr>().operand());
      if (!operand) return std::nullopt;
      return -*operand;
    }
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      if (!IsArithmeticOp(binary.op())) return std::nullopt;
      auto lhs = NumericConstant(binary.lhs());
      if (!lhs) return std::nullopt;
      auto rhs = NumericConstant(binary.rhs());
      if (!rhs) return std::nullopt;
      switch (binary.op()) {
        case BinaryOp::kAdd: return *lhs + *rhs;
        case BinaryOp::kSub: return *lhs - *rhs;
        case BinaryOp::kMul: return *lhs * *rhs;
        case BinaryOp::kDiv: return *lhs / *rhs;
        default: return std::fmod(*lhs, *rhs);
      }
    }
    default:
      return std::nullopt;
  }
}

bool IsNullaryCall(const Expr& expr, Function function) {
  return expr.kind() == Expr::Kind::kFunctionCall &&
         expr.As<FunctionCall>().function() == function &&
         expr.As<FunctionCall>().arg_count() == 0;
}

/// The integer ranks r with lo <= r <= hi, from real bounds. Ranks are node
/// counts, far below 2^53, so a bound past that is no bound; a NaN bound
/// (every comparison with NaN is false) selects nothing.
RankSelection RankInterval(double lo, double hi) {
  constexpr double kRankCeiling = 9007199254740992.0;  // 2^53
  RankSelection rank;
  rank.active = true;
  if (std::isnan(lo) || std::isnan(hi) || lo > kRankCeiling || hi < 1) {
    rank.hi = 0;  // empty
    return rank;
  }
  rank.lo = lo <= 1 ? 1 : static_cast<int64_t>(lo);
  rank.hi = hi >= kRankCeiling ? RankSelection::kUnbounded
                               : static_cast<int64_t>(hi);
  return rank;
}

/// position() op c as a rank interval (inactive for ops that are not one
/// of = < <= > >=).
RankSelection CompareRank(BinaryOp op, double c) {
  constexpr double kInf = HUGE_VAL;
  switch (op) {
    case BinaryOp::kEq:
      return std::floor(c) == c ? RankInterval(c, c) : RankInterval(1, 0);
    case BinaryOp::kLt: return RankInterval(1, std::ceil(c) - 1);
    case BinaryOp::kLe: return RankInterval(1, std::floor(c));
    case BinaryOp::kGt: return RankInterval(std::floor(c) + 1, kInf);
    case BinaryOp::kGe: return RankInterval(std::ceil(c), kInf);
    default: return {};
  }
}

/// c op position() is position() op' c.
BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

}  // namespace

RankSelection RankSelection::Of(const Expr& predicate) {
  // [c]: a numeric predicate is the position test position() = c.
  if (auto c = NumericConstant(predicate)) {
    return CompareRank(BinaryOp::kEq, *c);
  }
  if (predicate.kind() != Expr::Kind::kBinary) return {};
  const auto& binary = predicate.As<BinaryExpr>();
  BinaryOp op = binary.op();
  const Expr* bound = &binary.rhs();
  if (!IsNullaryCall(binary.lhs(), Function::kPosition)) {
    if (!IsNullaryCall(binary.rhs(), Function::kPosition)) return {};
    bound = &binary.lhs();
    op = Mirror(op);
  }
  if (op == BinaryOp::kEq && IsNullaryCall(*bound, Function::kLast)) {
    RankSelection rank;
    rank.active = true;
    rank.last = true;
    return rank;
  }
  auto c = NumericConstant(*bound);
  if (!c) return {};
  return CompareRank(op, *c);
}

QueryAnalysis Analyze(const Query& query) {
  Analyzer analyzer(query);
  QueryAnalysis analysis = analyzer.Run();
  analysis.max_not_depth = NotDepth(query.root());
  return analysis;
}

}  // namespace gkx::xpath
