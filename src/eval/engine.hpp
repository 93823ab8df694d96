// The user-facing facade over the compile pipeline (src/plan):
//   normalize (canonical rewrites) → classify per subexpression (Figure 1,
//   per step) → lower (fused same-engine segments) → execute.
// Every plan runs through the segment executor (plan/exec.hpp), which gives
// each segment the cheapest sound engine —
//   predicate-free steps (PF, NL)         -> pf-frontier bitset sweeps
//   Core predicates (incl. positive Core) -> core-linear, O(|D|·|Q|)
//   anything else                         -> cvt, context-value tables
// — so a mixed plan keeps its path spine on the bitset fast path and drops
// into CVT only for the offending predicate subtree. Answer.evaluator
// reports the plan's route list: one route for a uniform plan
// ("pf-frontier", "core-linear", "cvt"), '+'-joined for a hybrid one
// ("pf-frontier+cvt").

#ifndef GKX_EVAL_ENGINE_HPP_
#define GKX_EVAL_ENGINE_HPP_

#include <memory>
#include <string>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "plan/exec.hpp"
#include "plan/physical.hpp"
#include "xpath/fragment.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {

class Engine {
 public:
  struct Answer {
    Value value;
    xpath::FragmentReport fragment;
    std::string evaluator;  // route list that produced the value
  };

  /// A compiled query — the physical plan (see plan/physical.hpp). Plans
  /// are immutable after Compile and safe to share across threads.
  using Plan = plan::Physical;

  /// Parses, normalizes, classifies per subexpression, and lowers a query
  /// into a reusable Plan. Running a Plan via RunPlan gives answers
  /// value-identical to Run(doc, query_text).
  static Result<Plan> Compile(std::string_view query_text);

  /// Compiles an already-parsed query into a Plan (the query is moved in).
  static Plan CompileParsed(xpath::Query query);

  /// Runs a compiled plan from the root context.
  Result<Answer> RunPlan(const xml::Document& doc, const Plan& plan) {
    return RunPlan(doc, plan, RootContext(doc));
  }

  /// Runs a compiled plan from a given context.
  Result<Answer> RunPlan(const xml::Document& doc, const Plan& plan,
                         const Context& ctx) {
    return RunPlan(doc, plan, ctx, nullptr);
  }

  /// Same, with per-segment timing capture: when `trace` is non-null, one
  /// SegmentTiming per plan segment is appended (see plan/exec.hpp).
  Result<Answer> RunPlan(const xml::Document& doc, const Plan& plan,
                         const Context& ctx, plan::ExecTrace* trace);

  /// Parses, compiles, and runs a query from the root context.
  Result<Answer> Run(const xml::Document& doc, std::string_view query_text);

  /// Intra-query parallelism: plans partition their segments per `opts`
  /// (see plan/exec.hpp); `stats`, when non-null, receives per-segment
  /// parallel/sequential/skipped counts from every run (the service wires
  /// its shared counters here). Answers are byte-identical to sequential
  /// execution at any setting.
  void set_exec_options(const plan::ExecOptions& opts) { exec_opts_ = opts; }
  void set_exec_stats(plan::ExecStats* stats) { exec_stats_ = stats; }

 private:
  CoreLinearEvaluator linear_;
  CvtEvaluator cvt_;
  plan::ExecOptions exec_opts_;
  plan::ExecStats* exec_stats_ = nullptr;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_ENGINE_HPP_
