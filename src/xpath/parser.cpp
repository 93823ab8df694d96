#include "xpath/parser.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "xpath/build.hpp"
#include "xpath/lexer.hpp"

namespace gkx::xpath {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Run() {
    ExprPtr expr;
    GKX_ASSIGN_OR_RETURN(expr, ParseExpr());
    if (Peek().kind != TokenKind::kEof) {
      return Error("unexpected " + std::string(TokenKindName(Peek().kind)) +
                   " after complete expression")
          .status();
    }
    return Query::Create(std::move(expr));
  }

 private:
  const Token& Peek(size_t lookahead = 0) const {
    size_t i = pos_ + lookahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;  // kEof
    return tokens_[i];
  }

  const Token& Take() {
    const Token& token = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return token;
  }

  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Take();
    return true;
  }

  Status Expect(TokenKind kind, std::string_view context) {
    if (Match(kind)) return Status::Ok();
    return Error(std::string("expected ") + std::string(TokenKindName(kind)) +
                 " " + std::string(context) + ", found " +
                 std::string(TokenKindName(Peek().kind)))
        .status();
  }

  Result<ExprPtr> Error(std::string message) const {
    return InvalidArgumentError("XPath parse error at offset " +
                                std::to_string(Peek().offset) + ": " +
                                std::move(message));
  }

  // Expr := OrExpr
  Result<ExprPtr> ParseExpr() {
    DepthGuard guard(this);
    GKX_RETURN_IF_ERROR(guard.status());
    return ParseBinary(0);
  }

  // Bounds the recursion through nested sub-expressions: every nesting
  // construct re-enters through ParseExpr or ParseUnary.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser* parser) : parser_(parser) { ++parser_->depth_; }
    ~DepthGuard() { --parser_->depth_; }
    Status status() const {
      return parser_->depth_ > kMaxNestingDepth ? parser_->TooDeep()
                                                : Status::Ok();
    }

   private:
    Parser* parser_;
  };

  Status TooDeep() const {
    return Error("expression nested deeper than " +
                 std::to_string(kMaxNestingDepth) + " levels")
        .status();
  }

  // Records the height of the expression a production just built (see
  // kMaxNestingDepth): `height` above its deepest operand's.
  Status SetHeight(int height) {
    height_ = height;
    return height_ > kMaxNestingDepth ? TooDeep() : Status::Ok();
  }

  // Precedence-climbing over the binary operator levels.
  // level: 0=or 1=and 2=equality 3=relational 4=additive 5=multiplicative
  Result<ExprPtr> ParseBinary(int level) {
    if (level == 6) return ParseUnary();
    ExprPtr lhs;
    GKX_ASSIGN_OR_RETURN(lhs, ParseBinary(level + 1));
    while (true) {
      BinaryOp op;
      if (!MatchOperator(level, &op)) return lhs;
      const int lhs_height = height_;
      ExprPtr rhs;
      GKX_ASSIGN_OR_RETURN(rhs, ParseBinary(level + 1));
      // Left-associative chains deepen the tree without recursing here.
      GKX_RETURN_IF_ERROR(SetHeight(std::max(lhs_height, height_) + 1));
      lhs = build::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  bool MatchOperator(int level, BinaryOp* op) {
    const TokenKind kind = Peek().kind;
    switch (level) {
      case 0:
        if (kind == TokenKind::kOr) { *op = BinaryOp::kOr; break; }
        return false;
      case 1:
        if (kind == TokenKind::kAnd) { *op = BinaryOp::kAnd; break; }
        return false;
      case 2:
        if (kind == TokenKind::kEq) { *op = BinaryOp::kEq; break; }
        if (kind == TokenKind::kNe) { *op = BinaryOp::kNe; break; }
        return false;
      case 3:
        if (kind == TokenKind::kLt) { *op = BinaryOp::kLt; break; }
        if (kind == TokenKind::kLe) { *op = BinaryOp::kLe; break; }
        if (kind == TokenKind::kGt) { *op = BinaryOp::kGt; break; }
        if (kind == TokenKind::kGe) { *op = BinaryOp::kGe; break; }
        return false;
      case 4:
        if (kind == TokenKind::kPlus) { *op = BinaryOp::kAdd; break; }
        if (kind == TokenKind::kMinus) { *op = BinaryOp::kSub; break; }
        return false;
      case 5:
        if (kind == TokenKind::kMul) { *op = BinaryOp::kMul; break; }
        if (kind == TokenKind::kDiv) { *op = BinaryOp::kDiv; break; }
        if (kind == TokenKind::kMod) { *op = BinaryOp::kMod; break; }
        return false;
      default:
        return false;
    }
    Take();
    return true;
  }

  // UnaryExpr := '-' UnaryExpr | UnionExpr
  Result<ExprPtr> ParseUnary() {
    if (Match(TokenKind::kMinus)) {
      DepthGuard guard(this);
      GKX_RETURN_IF_ERROR(guard.status());
      ExprPtr operand;
      GKX_ASSIGN_OR_RETURN(operand, ParseUnary());
      GKX_RETURN_IF_ERROR(SetHeight(height_ + 1));
      return ExprPtr(build::Negate(std::move(operand)));
    }
    return ParseUnion();
  }

  // UnionExpr := PathOrPrimary ('|' PathOrPrimary)*
  Result<ExprPtr> ParseUnion() {
    ExprPtr first;
    GKX_ASSIGN_OR_RETURN(first, ParsePathOrPrimary());
    if (Peek().kind != TokenKind::kPipe) return first;
    std::vector<ExprPtr> branches;
    branches.push_back(std::move(first));
    int height = height_;
    while (Match(TokenKind::kPipe)) {
      ExprPtr next;
      GKX_ASSIGN_OR_RETURN(next, ParsePathOrPrimary());
      branches.push_back(std::move(next));
      height = std::max(height, height_);
    }
    GKX_RETURN_IF_ERROR(SetHeight(height + 1));
    for (const ExprPtr& branch : branches) {
      const Expr::Kind kind = branch->kind();
      if (kind != Expr::Kind::kPath && kind != Expr::Kind::kUnion) {
        return Error("operands of '|' must be location paths");
      }
    }
    // Flatten nested unions (parenthesized unions are still location-path
    // typed, so keep them as branches; only direct nesting is flattened by
    // associativity of the loop above).
    return ExprPtr(build::Union(std::move(branches)));
  }

  Result<ExprPtr> ParsePathOrPrimary() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kNumber: {
        double value = Take().number;
        height_ = 1;
        return ExprPtr(build::Number(value));
      }
      case TokenKind::kLiteral: {
        std::string value = Take().text;
        height_ = 1;
        return ExprPtr(build::Str(std::move(value)));
      }
      case TokenKind::kLParen: {
        Take();
        ExprPtr inner;
        GKX_ASSIGN_OR_RETURN(inner, ParseExpr());
        GKX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close '('"));
        return inner;
      }
      case TokenKind::kDollar:
        return Error("variables are not supported");
      case TokenKind::kAt:
        return Error("the attribute axis is not supported (outside the "
                     "paper's fragments)");
      case TokenKind::kName:
        // Function call if followed by '(' and not the node() node test.
        if (Peek(1).kind == TokenKind::kLParen && token.text != "node") {
          return ParseFunctionCall();
        }
        return ParseLocationPath();
      case TokenKind::kSlash:
      case TokenKind::kDoubleSlash:
      case TokenKind::kStar:
      case TokenKind::kDot:
      case TokenKind::kDotDot:
        return ParseLocationPath();
      default:
        return Error("expected an expression, found " +
                     std::string(TokenKindName(token.kind)));
    }
  }

  Result<ExprPtr> ParseFunctionCall() {
    std::string name = Take().text;
    Function function;
    if (!FunctionFromName(name, &function)) {
      return Error("unknown function '" + name + "'");
    }
    GKX_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after function name"));
    std::vector<ExprPtr> args;
    int height = 0;
    if (Peek().kind != TokenKind::kRParen) {
      while (true) {
        ExprPtr arg;
        GKX_ASSIGN_OR_RETURN(arg, ParseExpr());
        args.push_back(std::move(arg));
        height = std::max(height, height_);
        if (!Match(TokenKind::kComma)) break;
      }
    }
    GKX_RETURN_IF_ERROR(SetHeight(height + 1));
    GKX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close the argument list"));
    GKX_RETURN_IF_ERROR(CheckArity(function, args.size()));
    return ExprPtr(build::Call(function, std::move(args)));
  }

  Status CheckArity(Function function, size_t argc) {
    auto arity_error = [&](std::string_view expected) {
      return Error(std::string(FunctionName(function)) + "() expects " +
                   std::string(expected) + " argument(s), got " +
                   std::to_string(argc))
          .status();
    };
    switch (function) {
      case Function::kPosition:
      case Function::kLast:
      case Function::kTrue:
      case Function::kFalse:
        return argc == 0 ? Status::Ok() : arity_error("0");
      case Function::kNot:
      case Function::kBoolean:
      case Function::kCount:
      case Function::kSum:
      case Function::kFloor:
      case Function::kCeiling:
      case Function::kRound:
        return argc == 1 ? Status::Ok() : arity_error("1");
      case Function::kNumber:
      case Function::kString:
      case Function::kStringLength:
      case Function::kNormalizeSpace:
      case Function::kName:
      case Function::kLocalName:
        return argc <= 1 ? Status::Ok() : arity_error("0 or 1");
      case Function::kContains:
      case Function::kStartsWith:
      case Function::kSubstringBefore:
      case Function::kSubstringAfter:
        return argc == 2 ? Status::Ok() : arity_error("2");
      case Function::kSubstring:
        return argc == 2 || argc == 3 ? Status::Ok() : arity_error("2 or 3");
      case Function::kTranslate:
        return argc == 3 ? Status::Ok() : arity_error("3");
      case Function::kConcat:
        return argc >= 2 ? Status::Ok() : arity_error("2 or more");
    }
    return Status::Ok();
  }

  Result<ExprPtr> ParseLocationPath() {
    bool absolute = false;
    std::vector<Step> steps;
    // Steps sit side by side; only their predicates nest.
    int height = 0;
    if (Match(TokenKind::kSlash)) {
      absolute = true;
      if (!StartsStep()) {
        height_ = 1;
        return ExprPtr(build::Path(true, {}));  // bare "/"
      }
    } else if (Match(TokenKind::kDoubleSlash)) {
      absolute = true;
      steps.push_back(build::MakeStep(Axis::kDescendantOrSelf, NodeTest::AllNodes()));
      if (!StartsStep()) return Error("expected a step after '//'");
    }
    while (true) {
      Step step;
      GKX_RETURN_IF_ERROR(ParseStep(&step, &height));
      steps.push_back(std::move(step));
      if (Match(TokenKind::kSlash)) {
        if (!StartsStep()) return Error("expected a step after '/'");
        continue;
      }
      if (Match(TokenKind::kDoubleSlash)) {
        steps.push_back(
            build::MakeStep(Axis::kDescendantOrSelf, NodeTest::AllNodes()));
        if (!StartsStep()) return Error("expected a step after '//'");
        continue;
      }
      break;
    }
    GKX_RETURN_IF_ERROR(SetHeight(height + 1));
    return ExprPtr(build::Path(absolute, std::move(steps)));
  }

  bool StartsStep() const {
    switch (Peek().kind) {
      case TokenKind::kName:
      case TokenKind::kStar:
      case TokenKind::kDot:
      case TokenKind::kDotDot:
      case TokenKind::kAt:
        return true;
      default:
        return false;
    }
  }

  // Parses one step; *height rises to its deepest predicate's height.
  Status ParseStep(Step* out, int* height) {
    if (Match(TokenKind::kDot)) {
      *out = build::MakeStep(Axis::kSelf, NodeTest::AllNodes());
      return Status::Ok();
    }
    if (Match(TokenKind::kDotDot)) {
      *out = build::MakeStep(Axis::kParent, NodeTest::AllNodes());
      return Status::Ok();
    }
    if (Peek().kind == TokenKind::kAt) {
      return Error("the attribute axis is not supported (outside the paper's "
                   "fragments)")
          .status();
    }

    Axis axis = Axis::kChild;
    if (Peek().kind == TokenKind::kName &&
        Peek(1).kind == TokenKind::kDoubleColon) {
      std::string axis_name = Take().text;
      Take();  // '::'
      if (!AxisFromName(axis_name, &axis)) {
        if (axis_name == "attribute" || axis_name == "namespace") {
          return Error("the " + axis_name +
                       " axis is not supported (outside the paper's fragments)")
              .status();
        }
        return Error("unknown axis '" + axis_name + "'").status();
      }
    }

    NodeTest test;
    if (Match(TokenKind::kStar)) {
      test = NodeTest::Any();
    } else if (Peek().kind == TokenKind::kName) {
      std::string name = Take().text;
      if (name == "node" && Peek().kind == TokenKind::kLParen) {
        Take();
        GKX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close node()"));
        test = NodeTest::AllNodes();
      } else if (name == "text" && Peek().kind == TokenKind::kLParen) {
        return Error("text() node tests are not supported (the data model "
                     "attaches text to elements)")
            .status();
      } else {
        test = NodeTest::Name(name);
      }
    } else {
      return Error("expected a node test, found " +
                   std::string(TokenKindName(Peek().kind)))
          .status();
    }

    std::vector<ExprPtr> predicates;
    while (Match(TokenKind::kLBracket)) {
      ExprPtr predicate;
      GKX_ASSIGN_OR_RETURN(predicate, ParseExpr());
      predicates.push_back(std::move(predicate));
      *height = std::max(*height, height_);
      GKX_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "to close the predicate"));
    }
    *out = build::MakeStep(axis, std::move(test), std::move(predicates));
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;   // live ParseExpr / unary-minus recursion
  int height_ = 0;  // height of the expression last built
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Run();
}

Query MustParse(std::string_view text) {
  auto query = ParseQuery(text);
  if (!query.ok()) {
    std::fprintf(stderr, "MustParse(\"%.*s\") failed: %s\n",
                 static_cast<int>(text.size()), text.data(),
                 query.status().ToString().c_str());
    std::abort();
  }
  return std::move(query).value();
}

}  // namespace gkx::xpath
