#include "eval/evaluator.hpp"

#include <algorithm>
#include <utility>

namespace gkx::eval {

Result<NodeSet> Evaluator::EvaluateNodeSet(const xml::Document& doc,
                                           const xpath::Query& query) {
  auto value = EvaluateAtRoot(doc, query);
  if (!value.ok()) return value.status();
  if (!value->is_node_set()) {
    return InvalidArgumentError(
        "query does not evaluate to a node-set (got " +
        std::string(xpath::ValueTypeName(value->type())) + ")");
  }
  return std::move(value).value().TakeNodes();
}

bool PredicateTruth(const Value& value, const Context& ctx) {
  if (value.type() == ValueType::kNumber) {
    return value.number() == static_cast<double>(ctx.position);
  }
  return value.ToBoolean();
}

namespace {

/// Recycled candidate buffers for ApplyStep. The per-origin cvt loop calls
/// ApplyStep once per origin — on a frontier of thousands of origins the
/// malloc/free pair of a fresh candidates vector dominates the (often
/// empty) axis walk itself. The pool is a per-thread stack because
/// ApplyStep re-enters through predicate evaluation (a predicate's path
/// runs ApplyStep on its own origins), and the cvt origin loop fans out
/// across pool workers, each of which gets its own stack. A buffer that
/// leaves via an error return simply isn't recycled — no leak, the pool
/// just refills later.
std::vector<std::vector<xml::NodeId>>& BufferPool() {
  thread_local std::vector<std::vector<xml::NodeId>> pool;
  return pool;
}

std::vector<xml::NodeId> AcquireBuffer() {
  auto& pool = BufferPool();
  if (pool.empty()) return {};
  std::vector<xml::NodeId> buffer = std::move(pool.back());
  pool.pop_back();
  buffer.clear();
  return buffer;
}

void RecycleBuffer(std::vector<xml::NodeId>&& buffer) {
  BufferPool().push_back(std::move(buffer));
}

/// Keeps the candidates whose 1-based rank `rank` selects.
void SliceByRank(const xpath::RankSelection& rank,
                 std::vector<xml::NodeId>* candidates) {
  const auto size = static_cast<int64_t>(candidates->size());
  const int64_t lo = rank.last ? size : rank.lo;
  const int64_t hi = rank.last ? size : std::min(rank.hi, size);
  if (lo > hi) {
    candidates->clear();
    return;
  }
  candidates->resize(static_cast<size_t>(hi));
  candidates->erase(candidates->begin(),
                    candidates->begin() + static_cast<ptrdiff_t>(lo - 1));
}

}  // namespace

Status ApplyStep(const xml::Document& doc, const xpath::Step& step,
                 const ResolvedTest& test, xml::NodeId origin,
                 const PredicateFn& eval_predicate,
                 const xpath::QueryAnalysis* ranks,
                 std::vector<xml::NodeId>* out) {
  // Predicate-free steps never need the candidate list at all: survivors
  // are exactly the test-passing axis nodes, streamed straight into `out`
  // in axis order (the same order AxisNodes materializes).
  if (step.predicates.empty()) {
    ForEachOnAxis(doc, origin, step.axis, [&](xml::NodeId v) {
      if (test.Matches(doc, v)) out->push_back(v);
      return true;
    });
    return Status::Ok();
  }
  auto rank_of = [ranks](const xpath::Expr& predicate) {
    return ranks != nullptr ? ranks->traits(predicate).rank
                            : xpath::RankSelection{};
  };
  // ForEachOnAxis walks in axis order, reverse axes included, so when the
  // first predicate keeps ranks <= hi only the first hi candidates matter.
  int64_t limit = xpath::RankSelection::kUnbounded;
  const xpath::RankSelection first = rank_of(*step.predicates.front());
  if (first.active && !first.last) {
    if (first.lo > first.hi) return Status::Ok();
    limit = first.hi;
  }
  std::vector<xml::NodeId> candidates = AcquireBuffer();
  ForEachOnAxis(doc, origin, step.axis, [&](xml::NodeId v) {
    if (test.Matches(doc, v)) candidates.push_back(v);
    return static_cast<int64_t>(candidates.size()) < limit;
  });
  for (const xpath::ExprPtr& predicate : step.predicates) {
    if (candidates.empty()) break;
    const xpath::RankSelection rank = rank_of(*predicate);
    if (rank.active) {
      SliceByRank(rank, &candidates);
      continue;
    }
    std::vector<xml::NodeId> survivors = AcquireBuffer();
    survivors.reserve(candidates.size());
    const int64_t size = static_cast<int64_t>(candidates.size());
    for (int64_t i = 0; i < size; ++i) {
      Context ctx{candidates[static_cast<size_t>(i)], i + 1, size};
      auto keep = eval_predicate(*predicate, ctx);
      if (!keep.ok()) return keep.status();
      if (*keep) survivors.push_back(ctx.node);
    }
    std::swap(candidates, survivors);  // re-ranked for the next predicate
    RecycleBuffer(std::move(survivors));
  }
  out->insert(out->end(), candidates.begin(), candidates.end());
  RecycleBuffer(std::move(candidates));
  return Status::Ok();
}

}  // namespace gkx::eval
