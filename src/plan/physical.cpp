#include "plan/physical.hpp"

#include <utility>

#include "base/check.hpp"

namespace gkx::plan {

namespace {

/// Whether one engine runs both routes: the bitset sweep runs pf-frontier
/// and core-linear steps alike (a predicate-free step differs only in the
/// condition intersection), the cvt engine runs cvt steps.
bool SameEngine(Route a, Route b) {
  return (a == Route::kCvt) == (b == Route::kCvt);
}

/// Appends `segment`, fusing it into the last one when the same engine runs
/// both. A fused bitset run is core-linear once any of its steps is.
void AppendFused(const Segment& segment, std::vector<Segment>* segments) {
  if (segments->empty() || !SameEngine(segments->back().route, segment.route)) {
    segments->push_back(segment);
    return;
  }
  Segment& last = segments->back();
  last.step_end = segment.step_end;
  if (segment.route == Route::kCoreLinear) last.route = Route::kCoreLinear;
}

/// Fuses the top-level steps of `path` into engine runs. A step-free path
/// ("/") is one empty pf-frontier segment, so every branch has a segment.
std::vector<Segment> FuseSegments(const xpath::PathExpr& path,
                                  const std::vector<StepPlan>& steps) {
  std::vector<Segment> segments;
  for (int s = 0; s < static_cast<int>(path.step_count()); ++s) {
    const xpath::Step& step = path.step(static_cast<size_t>(s));
    AppendFused(Segment{steps[static_cast<size_t>(step.id)].route, s, s + 1},
                &segments);
  }
  if (segments.empty()) segments.push_back(Segment{Route::kPfFrontier, 0, 0});
  return segments;
}

/// Cost-model boundary placement: a short bitset segment sandwiched between
/// two cvt segments pays two NodeBitset⇄NodeSet materializations for a
/// handful of sweeps. Running those steps on the (already bound) cvt engine
/// is sound — cvt evaluates the full fragment — and removes both seams, so
/// demote while the CostModel says the boundaries dominate, then re-fuse.
/// Runs after fusion, so it sees the true length of each bitset run.
void DemoteSandwichedSegments(std::vector<Segment>* segments) {
  const int max_steps = kDefaultCostModel.max_demoted_steps();
  bool demoted = false;
  for (size_t i = 1; i + 1 < segments->size(); ++i) {
    Segment& mid = (*segments)[i];
    if (mid.route != Route::kCvt && (*segments)[i - 1].route == Route::kCvt &&
        (*segments)[i + 1].route == Route::kCvt &&
        mid.step_end - mid.step_begin <= max_steps) {
      mid.route = Route::kCvt;
      demoted = true;
    }
  }
  if (!demoted) return;
  std::vector<Segment> fused;
  for (const Segment& segment : *segments) AppendFused(segment, &fused);
  *segments = std::move(fused);
}

}  // namespace

Physical Lower(Logical logical) {
  GKX_CHECK(logical.classified);
  Physical out{std::move(logical.query)};
  out.canonical_text = std::move(logical.canonical_text);
  out.fragment = std::move(logical.fragment);
  out.steps = std::move(logical.steps);
  out.footprint = ExtractFootprint(out.query);

  // Collect the top-level branch paths (root path, or union of paths).
  // Anything else is one cvt segment over the whole expression.
  const xpath::Expr& root = out.query.root();
  std::vector<const xpath::PathExpr*> paths;
  if (root.kind() == xpath::Expr::Kind::kPath) {
    paths.push_back(&root.As<xpath::PathExpr>());
  } else if (root.kind() == xpath::Expr::Kind::kUnion) {
    const auto& u = root.As<xpath::UnionExpr>();
    for (size_t i = 0; i < u.branch_count(); ++i) {
      if (u.branch(i).kind() != xpath::Expr::Kind::kPath) {
        paths.clear();
        break;
      }
      paths.push_back(&u.branch(i).As<xpath::PathExpr>());
    }
  }

  if (paths.empty()) {
    out.branches.push_back(
        BranchProgram{nullptr, {Segment{Route::kCvt, 0, 0}}});
  }
  for (const xpath::PathExpr* path : paths) {
    BranchProgram branch{path, FuseSegments(*path, out.steps)};
    DemoteSandwichedSegments(&branch.segments);
    out.branches.push_back(std::move(branch));
  }

  // The label fuses across branch boundaries by the same engine rule, so a
  // union of bitset-only branches reads as the one route that runs it.
  std::vector<Segment> label;
  for (const BranchProgram& branch : out.branches) {
    for (const Segment& segment : branch.segments) AppendFused(segment, &label);
  }
  for (const Segment& segment : label) {
    if (!out.route_label.empty()) out.route_label += '+';
    out.route_label += RouteName(segment.route);
  }
  return out;
}

Physical Compile(xpath::Query parsed) {
  Logical logical = Normalize(std::move(parsed));
  ClassifyOps(&logical);
  return Lower(std::move(logical));
}

}  // namespace gkx::plan
