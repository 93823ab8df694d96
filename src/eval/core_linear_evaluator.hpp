// The O(|D|·|Q|) Core XPath evaluator of Gottlob–Koch–Pichler [3]
// (Prop 2.7). Set-at-a-time: conditions are evaluated bottom-up as *sets of
// nodes satisfying them* (bitsets), location paths as set-to-set axis images;
// every axis image is computed by an O(|D|) tree sweep, so total time is
// O(|D|·|Q|). Supports exactly Core XPath (Def 2.5): paths, predicates with
// and/or/not, union — anything else returns kUnsupported.
//
// Parallel sweeps: the Core/PF fragments sit in LOGCFL — the paper's whole
// point is that they are highly parallelizable — and the O(|D|) sweeps
// realize that directly: the node universe is partitioned into
// word-aligned preorder intervals (subtrees are contiguous preorder
// ranges), each ThreadPool worker sweeps its interval, and no two workers
// ever touch the same output uint64_t. Axes whose sequential recurrence
// carries a prefix (descendant*/ancestor*) run as two-phase block scans
// (per-interval partials, a tiny sequential carry combine, then an
// independent per-interval pass). The sibling axes keep their sequential
// chain recurrence — their pointer-chase order resists interval
// partitioning and they are rare in the measured workloads (the cost model
// in plan/physical.hpp treats them as sequential-only).

#ifndef GKX_EVAL_CORE_LINEAR_EVALUATOR_HPP_
#define GKX_EVAL_CORE_LINEAR_EVALUATOR_HPP_

#include <cstdint>
#include <unordered_map>

#include "base/thread_pool.hpp"
#include "eval/evaluator.hpp"

namespace gkx::eval {

/// Smallest document for which partitioned bitset sweeps run in parallel —
/// the one value behind SweepOptions and plan::CostModel. bench_fig1_fragments
/// measures the crossover: on a 4-core host, forced partitioned sweeps lose
/// to one thread up to 128k nodes (0.20-0.93x) and break even (0.97-1.02x)
/// at 512k, so they start past that.
inline constexpr int32_t kMinParallelSweepNodes = 1 << 20;

/// How bitset sweeps (axis images, test-set fills, predicate
/// intersections) are partitioned across a ThreadPool. workers <= 1 — or a
/// universe below min_parallel_nodes — keeps every sweep sequential: a
/// fork/join over a tiny frontier costs more than the sweep itself.
struct SweepOptions {
  /// Pool to fan out on; nullptr with workers > 1 = ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Concurrent sweep workers (the calling thread participates); <= 1 runs
  /// sequentially.
  int workers = 1;
  /// Documents smaller than this never partition (fork/join overhead
  /// dominates sub-millisecond sweeps).
  int32_t min_parallel_nodes = kMinParallelSweepNodes;

  bool ShouldPartition(int32_t universe) const {
    return workers > 1 && universe >= min_parallel_nodes;
  }
};

/// Computes the image of `input` under `axis`: { y : ∃x ∈ input, y ∈ axis(x) }.
/// One O(|D|) sweep per call (document order / subtree-range / sibling-chain
/// recurrences — see the implementation notes), partitioned per `sweep`.
NodeBitset AxisImage(const xml::Document& doc, xpath::Axis axis,
                     const NodeBitset& input, const SweepOptions& sweep);

/// Sequential convenience overload.
inline NodeBitset AxisImage(const xml::Document& doc, xpath::Axis axis,
                            const NodeBitset& input) {
  return AxisImage(doc, axis, input, SweepOptions{});
}

/// The axis χ' with y ∈ χ'(x) iff x ∈ χ(y) (child↔parent, descendant↔ancestor,
/// following↔preceding, self↔self, ...-sibling mirrored).
xpath::Axis InverseAxis(xpath::Axis axis);

class CoreLinearEvaluator : public Evaluator {
 public:
  std::string_view name() const override { return "core-linear"; }

  Result<Value> Evaluate(const xml::Document& doc, const xpath::Query& query,
                         const Context& ctx) override;

  /// Binds a document. The condition cache is query-scoped (keyed by
  /// expression id, which collides across queries), so it always clears;
  /// the test-set cache is document-scoped, so rebinding the SAME document
  /// — identified by (address, serial), never by address alone — keeps it
  /// warm. A long-lived evaluator thus pays each O(|D|) test fill once per
  /// (document, name), not once per run; answers are identical either way
  /// because documents are immutable.
  void Bind(const xml::Document& doc) {
    condition_cache_.clear();
    if (doc_ == &doc && bound_serial_ == doc.serial()) return;
    doc_ = &doc;
    bound_serial_ = doc.serial();
    test_cache_.clear();
  }

  /// Sweep partitioning for this evaluator's axis images / test fills /
  /// predicate intersections. Defaults to sequential.
  void set_sweep_options(const SweepOptions& sweep) { sweep_ = sweep; }

  /// Applies steps [begin, end) of `path` to the `frontier` set-at-a-time:
  /// one axis image + test/condition intersection per step, O(|D|) each.
  /// Every predicate in the range must be a Core bexpr (kUnsupported
  /// otherwise). Bind must have been called.
  Result<NodeBitset> EvalStepRange(const xpath::PathExpr& path, size_t begin,
                                   size_t end, const NodeBitset& frontier);

 private:
  /// Set of nodes where the Core XPath condition holds (bexpr of Def 2.5).
  /// Returns a pointer into condition_cache_ (stable until the next Bind) so
  /// fused intersection passes can AND several cached sets without copying.
  Result<const NodeBitset*> ConditionSet(const xpath::Expr& expr);

  /// Set of nodes from which the path (suffix starting at `step_index`)
  /// selects at least one node — computed right-to-left via inverse axes.
  Result<NodeBitset> PathOriginSet(const xpath::PathExpr& path);

  /// Forward evaluation: image of `start` under the whole path.
  Result<NodeBitset> EvalPathForward(const xpath::PathExpr& path,
                                     const NodeBitset& start);

  /// Forward evaluation of a path-or-union expression.
  Result<NodeBitset> EvalNodeSetForward(const xpath::Expr& expr,
                                        const NodeBitset& start);

  /// Nodes passing the step's node test. Cached per Bind, keyed by the
  /// resolved test — a query touching the same name on several steps used
  /// to rescan all of doc (and re-resolve the name) once per step of every
  /// segment; now each distinct test is one O(|D|) fill per bound document.
  const NodeBitset& TestSet(const xpath::Step& step);

  const xml::Document* doc_ = nullptr;
  uint64_t bound_serial_ = 0;  // serial of *doc_ when test_cache_ was built
  SweepOptions sweep_;
  // Condition sets are shared across all uses of a subexpression (the query
  // is processed as a DAG of conditions), keyed by expression id.
  std::unordered_map<int, NodeBitset> condition_cache_;
  // Resolved-test bitsets, keyed by (test kind, resolved name id).
  std::unordered_map<uint64_t, NodeBitset> test_cache_;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_CORE_LINEAR_EVALUATOR_HPP_
