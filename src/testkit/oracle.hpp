// The independent answer key for a compiled Schedule. The oracle evaluates
// every (document revision, query) pair the schedule can actually exercise
// with NaiveEvaluator — the direct spec-reading engine: no plan cache, no
// Optimize, no DocumentIndex fast path, no fragment dispatch, no memo
// tables, and no rank-selection slicing (every predicate, positional ones
// included, is evaluated per candidate over the whole axis) — single-
// threaded, before the concurrent replay starts. It does share the
// recursive kernel's axis enumeration (ForEachOnAxis) and value semantics
// (eval/value.hpp) with the cvt engine, so a fault there is invisible to
// it; the paper's reductions with known answers cover those. Any answer the service produces that matches no live
// revision's oracle digest is a semantic divergence.
//
// Digests are Value::DebugString() renderings: exact structural equality,
// no coercions, stable across runs for a fixed document revision.

#ifndef GKX_TESTKIT_ORACLE_HPP_
#define GKX_TESTKIT_ORACLE_HPP_

#include <string>
#include <vector>

#include "eval/value.hpp"
#include "testkit/workload.hpp"

namespace gkx::testkit {

/// Digest of a successful evaluation (the driver applies the same function
/// to service answers before comparing).
std::string AnswerDigest(const eval::Value& value);

class Oracle {
 public:
  /// Precomputes digests for every (doc, query) pair that occurs in the
  /// schedule, across all revisions of that doc (a concurrent reader may
  /// legally observe any of them). `standing_queries` (pool indexes) are
  /// additionally precomputed against *every* document — standing
  /// subscriptions watch the whole corpus, not just the pairs traffic
  /// happens to touch.
  explicit Oracle(const Schedule& schedule,
                  const std::vector<int32_t>& standing_queries = {});

  /// The expected digest for (doc, revision, query). CHECK-fails if the
  /// pair cannot occur in the schedule (it was never precomputed).
  const std::string& Expected(int32_t doc, int32_t revision, int32_t query) const;

  /// True if `digest` matches the expected answer for some revision in
  /// [rev_lo, rev_hi] — the snapshot window a concurrent reader may observe.
  bool MatchesAnyRevision(int32_t doc, int32_t rev_lo, int32_t rev_hi,
                          int32_t query, const std::string& digest) const;

  /// Evaluations performed during precomputation (for reporting).
  int64_t evaluations() const { return evaluations_; }

 private:
  // digests_[doc][revision][query]; empty string = pair never precomputed.
  std::vector<std::vector<std::vector<std::string>>> digests_;
  int64_t evaluations_ = 0;
};

}  // namespace gkx::testkit

#endif  // GKX_TESTKIT_ORACLE_HPP_
