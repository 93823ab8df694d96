// Recursive-descent parser for the XPath subset described in ast.hpp.
// Abbreviations are expanded at parse time:
//   //   ->  /descendant-or-self::node()/
//   name ->  child::name          .  -> self::node()    .. -> parent::node()
// Variables ($x), attribute (@/attribute::) and namespace axes are rejected
// with targeted error messages (they fall outside every fragment the paper
// analyses), and so is nesting deeper than kMaxNestingDepth.

#ifndef GKX_XPATH_PARSER_HPP_
#define GKX_XPATH_PARSER_HPP_

#include <string_view>

#include "base/status.hpp"
#include "xpath/ast.hpp"

namespace gkx::xpath {

/// The deepest expression nesting the parser accepts, counted both as the
/// height of the expression tree (a literal is 1; each operator, function
/// call, predicate-carrying path or union adds 1 above its deepest operand)
/// and as the parser's own recursion through parenthesized, bracketed,
/// argument and unary-minus sub-expressions. Everything downstream that
/// recurses on the tree (indexing, analysis, rewriting, planning,
/// evaluation, printing, destruction) stays within this bound; a deeper
/// query is InvalidArgument, never a stack overflow.
inline constexpr int kMaxNestingDepth = 512;

/// Parses a complete XPath expression into a Query.
Result<Query> ParseQuery(std::string_view text);

/// Parses and aborts on error — for tests and inline query constants.
Query MustParse(std::string_view text);

}  // namespace gkx::xpath

#endif  // GKX_XPATH_PARSER_HPP_
