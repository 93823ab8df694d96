// The physical program: stage 3 of the compile pipeline (see ir.hpp).
//
// Lower() fuses contiguous runs of steps into pipeline segments, keyed on
// the engine that runs them. A bitset segment flows a NodeBitset frontier
// from step to step in O(|D|) sweeps: `pf-frontier` when no step of the run
// has predicates, `core-linear` once any step has a Core predicate. A `cvt`
// segment evaluates its steps per origin node through the context-value
// tables. Between a bitset segment and a cvt segment sits an explicit
// materialization boundary (NodeBitset ⇄ document-order NodeSet) — the only
// points where representation conversion happens, so a mixed query pays for
// generality exactly where it uses it.
//
// Every plan runs through the segment executor (exec.hpp). A uniform plan
// is simply a plan whose segments all take one route; a root that is not a
// location path or a union of paths (count(...), a union with a filter
// branch, ...) is one `cvt` segment that evaluates the whole expression.
//
// Physical plans are immutable after Lower and safe to share across
// threads; the PlanCache hands them out as shared_ptr<const Physical>.

#ifndef GKX_PLAN_PHYSICAL_HPP_
#define GKX_PLAN_PHYSICAL_HPP_

#include <string>
#include <vector>

#include "eval/core_linear_evaluator.hpp"
#include "plan/footprint.hpp"
#include "plan/ir.hpp"

namespace gkx::plan {

/// Measured per-route execution costs, in relative units of one O(|D|)
/// bitset sweep. The constants come from the BENCH_fragments hybrid census
/// on the committed 8k-node deep corpus (bench/bench_fig1_fragments.cpp,
/// seed 4242): a NodeBitset⇄NodeSet materialization boundary costs about
/// two sweeps (bit-iteration + document-order set build), and a cvt step
/// over a typical mid-plan frontier about three and a half. Lower uses them
/// to place materialization boundaries; the runtime thresholds below decide
/// per segment whether a sweep/origin loop is worth forking (tiny frontiers
/// must not pay fork/join overhead).
struct CostModel {
  double sweep_step = 1.0;   // one bitset axis sweep over |D|
  double boundary = 1.9;     // one NodeBitset⇄NodeSet conversion
  double cvt_step = 3.4;     // one per-origin cvt step, mid-plan frontier

  /// Smallest document for which partitioned bitset sweeps run in
  /// parallel (the measured crossover, defined once in eval/).
  int32_t min_parallel_nodes = eval::kMinParallelSweepNodes;
  /// Origins per chunk below which the per-origin cvt loop stays on one
  /// thread (a loop of n origins splits into n / min_parallel_origins
  /// chunks, at most the worker count). Measured on the same host: forced
  /// 4-way loops lose at ~480 origins and win (1.1-1.3x) from ~2,000, so
  /// fan-out starts at 2,048 origins.
  int min_parallel_origins = 1024;

  /// Longest bitset segment worth demoting to cvt when it sits between two
  /// cvt segments: running s steps on the (already bound) cvt engine costs
  /// cvt_step·s but removes the two materialization boundaries around it;
  /// demotion wins while cvt_step·s < sweep_step·s + 2·boundary.
  int max_demoted_steps() const {
    return static_cast<int>(2.0 * boundary / (cvt_step - sweep_step));
  }
};

inline constexpr CostModel kDefaultCostModel{};

/// A fused run of steps [step_begin, step_end) of one branch path, all
/// executed by the same engine.
struct Segment {
  Route route = Route::kPfFrontier;
  int step_begin = 0;
  int step_end = 0;
};

/// The segment program for one top-level location path (the root path, or
/// one branch of a root union), or for the whole root expression when
/// `path` is null.
struct BranchProgram {
  const xpath::PathExpr* path = nullptr;  // borrowed from Physical::query
  std::vector<Segment> segments;
};

/// A compiled, immutable physical plan. `eval::Engine::Plan` is an alias of
/// this type.
struct Physical {
  xpath::Query query;              // normalized AST (owns the tree)
  std::string canonical_text;      // the PlanCache normal form
  xpath::FragmentReport fragment;  // whole-query report
  std::vector<StepPlan> steps;     // per-step annotations, by Step::id

  /// The segment programs, one per top-level branch; never empty. A root
  /// that is not a path or a union of paths is a single branch with a null
  /// path and one cvt segment.
  std::vector<BranchProgram> branches;

  /// The route list, e.g. "pf-frontier+cvt+pf-frontier": segment routes in
  /// plan order, with neighbours that the same engine runs fused across
  /// branch boundaries too. A uniform plan is a single route. This is what
  /// Engine::Answer.evaluator reports.
  std::string route_label;

  /// Conservative tag/axis dependency set (see footprint.hpp) — what the
  /// mview answer cache and subscription manager key invalidation on.
  Footprint footprint;
};

/// Stage 3: segment fusion. `logical` must be classified (ClassifyOps).
Physical Lower(Logical logical);

/// The whole pipeline: Normalize + ClassifyOps + Lower.
Physical Compile(xpath::Query parsed);

}  // namespace gkx::plan

#endif  // GKX_PLAN_PHYSICAL_HPP_
