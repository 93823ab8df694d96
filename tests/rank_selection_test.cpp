// Differential suite for rank selections: the positional predicates the cvt
// engine applies as slices of the candidate list, with the axis walk
// stopped at the last rank a step's first predicate can keep. Every answer
// must equal the naive engine's, which evaluates each predicate per
// candidate over the whole axis. Covers every comparison in both operand
// orders against fractional, non-positive, NaN, infinite and past-the-end
// constants; forward and reverse axes; predicate chains mixing ranks and
// Core conditions; count() over a ranked path; and the concurrent per-origin
// loop of the segment executor.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "eval/recursive_base.hpp"
#include "plan/exec.hpp"
#include "xml/generator.hpp"
#include "xpath/analysis.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {
namespace {

using xml::Document;
using xpath::RankSelection;

constexpr int64_t kNone = RankSelection::kUnbounded;

const char* const kOps[] = {"=", "<", "<=", ">", ">=", "!="};

const char* const kForwardAxes[] = {"child", "descendant", "descendant-or-self",
                                    "following", "following-sibling"};
const char* const kReverseAxes[] = {"ancestor", "ancestor-or-self",
                                    "preceding-sibling", "preceding"};

Document TestDocument(uint64_t seed, int32_t nodes, double chain_bias) {
  Rng rng(seed);
  xml::RandomDocumentOptions options;
  options.node_count = nodes;
  options.tag_alphabet = 3;
  options.chain_bias = chain_bias;
  return xml::RandomDocument(&rng, options);
}

std::vector<Document> TestDocuments() {
  std::vector<Document> docs;
  docs.push_back(TestDocument(11, 60, 0.0));
  docs.push_back(TestDocument(12, 45, 0.6));
  docs.push_back(TestDocument(13, 30, 0.95));
  return docs;
}

/// Number of t0 nodes — the candidate count of descendant::t0 from the root.
int64_t CountT0(const Document& doc) {
  Engine engine;
  auto answer = engine.Run(doc, "count(/descendant::t0)");
  GKX_CHECK(answer.ok());
  return static_cast<int64_t>(answer->value.number());
}

/// The constants each comparison is tried against: fractional, zero,
/// negative, NaN, ±Infinity and one past the candidate count.
std::vector<std::string> Literals(int64_t candidates) {
  return {"-1", "0",       "0.5",     "1",         "2.5",
          "3",  std::to_string(candidates + 1), "0 div 0",
          "1 div 0", "-1 div 0"};
}

/// Every rank-shaped predicate over `literals`, position() on either side,
/// plus [c], position() = last() and last() = position().
std::vector<std::string> RankPredicates(const std::vector<std::string>& literals) {
  std::vector<std::string> out;
  for (const std::string& c : literals) {
    out.push_back("[" + c + "]");
    for (const char* op : kOps) {
      out.push_back("[position() " + std::string(op) + " " + c + "]");
      out.push_back("[" + c + " " + std::string(op) + " position()]");
    }
  }
  out.push_back("[position() = last()]");
  out.push_back("[last() = position()]");
  return out;
}

std::string Digest(const Result<Value>& value) {
  return value.ok() ? value->DebugString() : value.status().ToString();
}

/// Asserts that every engine and every executor setting agrees byte for
/// byte with the naive engine on `text`.
void ExpectAgreement(const Document& doc, const std::string& text,
                     ThreadPool* pool) {
  SCOPED_TRACE(text);
  auto query = xpath::ParseQuery(text);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  NaiveEvaluator naive;
  const std::string expected = Digest(naive.EvaluateAtRoot(doc, *query));

  CvtEvaluator lazy;
  EXPECT_EQ(Digest(lazy.EvaluateAtRoot(doc, *query)), expected) << "cvt-lazy";
  CvtEvaluator eager(CvtEvaluator::Options{.eager = true});
  EXPECT_EQ(Digest(eager.EvaluateAtRoot(doc, *query)), expected) << "cvt-eager";

  auto plan = Engine::Compile(text);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const Context root = RootContext(doc);
  EXPECT_EQ(Digest(plan::ExecuteStaged(doc, *plan, root)), expected)
      << "segment executor, " << plan->route_label;

  // The concurrent per-origin loop: two workers share the bound engine's
  // tables and split every origin list, forced on at any size.
  plan::ExecOptions opts;
  opts.pool = pool;
  opts.workers = 2;
  opts.min_parallel_nodes = 1;
  opts.min_parallel_origins = 1;
  EXPECT_EQ(Digest(plan::ExecuteStaged(doc, *plan, root, nullptr, opts)),
            expected)
      << "exec.workers = 2, " << plan->route_label;
}

struct Interval {
  const char* predicate;
  bool active;
  bool last;
  int64_t lo;
  int64_t hi;
};

TEST(RankSelectionTest, ClassifiesToTheExactRankInterval) {
  // An empty selection is any lo > hi; the table spells it as [1, 0].
  const Interval cases[] = {
      {"3", true, false, 3, 3},
      {"2.5", true, false, 1, 0},
      {"0", true, false, 1, 0},
      {"-1", true, false, 1, 0},
      {"0 div 0", true, false, 1, 0},
      {"1 div 0", true, false, 1, 0},
      {"1 + 1", true, false, 2, 2},
      {"position() = 2", true, false, 2, 2},
      {"2 = position()", true, false, 2, 2},
      {"position() = 2.5", true, false, 1, 0},
      {"position() < 3", true, false, 1, 2},
      {"position() < 2.5", true, false, 1, 2},
      {"position() < 1", true, false, 1, 0},
      {"position() < 1 div 0", true, false, 1, kNone},
      {"position() < 0 div 0", true, false, 1, 0},
      {"position() <= 2.5", true, false, 1, 2},
      {"position() <= 0.5", true, false, 1, 0},
      {"position() > 2.5", true, false, 3, kNone},
      {"position() > -1", true, false, 1, kNone},
      {"position() > 1 div 0", true, false, 1, 0},
      {"position() > -1 div 0", true, false, 1, kNone},
      {"position() >= 2.5", true, false, 3, kNone},
      {"position() >= 0", true, false, 1, kNone},
      {"3 > position()", true, false, 1, 2},
      {"3 >= position()", true, false, 1, 3},
      {"3 < position()", true, false, 4, kNone},
      {"3 <= position()", true, false, 3, kNone},
      {"position() < 100000000000000000000000", true, false, 1, kNone},
      {"position() = 100000000000000000000000", true, false, 1, 0},
      {"position() = last()", true, true, 1, kNone},
      {"last() = position()", true, true, 1, kNone},
      // Not rank selections: evaluated per candidate.
      {"position() != 2", false, false, 1, kNone},
      {"position() < last()", false, false, 1, kNone},
      {"position() = '2'", false, false, 1, kNone},
      {"position() + 1 = 3", false, false, 1, kNone},
      {"child::t0", false, false, 1, kNone},
      {"true()", false, false, 1, kNone},
  };
  for (const Interval& c : cases) {
    SCOPED_TRACE(c.predicate);
    const xpath::Query query =
        xpath::MustParse("child::t0[" + std::string(c.predicate) + "]");
    const xpath::QueryAnalysis analysis = xpath::Analyze(query);
    const RankSelection rank =
        analysis.traits(*query.step(0).predicates.front()).rank;
    EXPECT_EQ(rank.active, c.active);
    if (!c.active) continue;
    EXPECT_EQ(rank.last, c.last);
    if (c.last) continue;
    if (c.lo > c.hi) {
      EXPECT_GT(rank.lo, rank.hi) << "expected an empty selection";
    } else {
      EXPECT_EQ(rank.lo, c.lo);
      EXPECT_EQ(rank.hi, c.hi);
    }
  }
}

TEST(RankSelectionTest, EveryComparisonOnForwardAxesMatchesNaive) {
  ThreadPool pool(2);
  for (const Document& doc : TestDocuments()) {
    for (const std::string& predicate : RankPredicates(Literals(CountT0(doc)))) {
      ExpectAgreement(doc, "/descendant::t0" + predicate, &pool);
      for (const char* axis : kForwardAxes) {
        ExpectAgreement(doc, "/descendant::t1/" + std::string(axis) + "::t0" +
                                 predicate,
                        &pool);
      }
    }
  }
}

TEST(RankSelectionTest, EveryComparisonOnReverseAxesMatchesNaive) {
  ThreadPool pool(2);
  for (const Document& doc : TestDocuments()) {
    for (const std::string& predicate : RankPredicates(Literals(CountT0(doc)))) {
      for (const char* axis : kReverseAxes) {
        ExpectAgreement(doc, "/descendant::t2/" + std::string(axis) + "::*" +
                                 predicate,
                        &pool);
      }
    }
  }
}

TEST(RankSelectionTest, PredicateChainsMatchNaive) {
  const char* const kChains[] = {
      // rank, then Core: the walk stops early, the Core predicate re-ranks
      // nothing it did not see.
      "/descendant::t0[position() < 4][child::t1]",
      "/descendant::t0[2][not(child::t2)]",
      "/descendant::t2/preceding::*[position() <= 3][child::*]",
      "/descendant::t2/ancestor::*[1][child::t1]",
      // Core, then rank: positions are ranks among the Core survivors.
      "/descendant::t0[child::t1][position() <= 2]",
      "/descendant::t2/ancestor::*[child::t2][1]",
      "/descendant::t1/preceding-sibling::*[not(child::*)][position() = last()]",
      "/descendant::t0[child::*][position() > 1]",
      // Two ranks: the second re-ranks the first's survivors.
      "/descendant::t0[position() > 1][position() < 3]",
      "/descendant::t0[position() < 5][position() = last()]",
      "/descendant::t0[position() = last()][1]",
      "/descendant::t2/preceding::*[position() >= 2][2]",
      "/descendant::t0[position() < 0][1]",
      // Ranks inside a nested predicate path, and a non-rank positional.
      "/descendant::t1[child::t0[position() = 2]]",
      "/descendant::t0[position() != 2][position() < 4]",
      "/descendant::t0[position() < last()][position() <= 2]",
  };
  ThreadPool pool(2);
  for (const Document& doc : TestDocuments()) {
    for (const char* text : kChains) ExpectAgreement(doc, text, &pool);
  }
}

TEST(RankSelectionTest, CountOverARankedPathMatchesNaive) {
  ThreadPool pool(2);
  for (const Document& doc : TestDocuments()) {
    for (const std::string& c : Literals(CountT0(doc))) {
      ExpectAgreement(doc, "count(descendant::t0[position() < " + c + "])",
                      &pool);
      ExpectAgreement(doc, "count(/descendant::t2/preceding::t0[" + c + " <= position()])",
                      &pool);
      ExpectAgreement(doc, "count(descendant::t0[" + c + "]) = 1", &pool);
    }
  }
}

TEST(RankSelectionTest, ManyOriginsAcrossTheParallelLoop) {
  ThreadPool pool(2);
  const Document doc = TestDocument(21, 1500, 0.3);
  const char* const kTexts[] = {
      "/descendant::*/child::t0[position() < 3]",
      "/descendant::*/following-sibling::*[2]",
      "/descendant::t1/preceding::t0[position() <= 2]/child::*[1]",
      "/descendant::t2/ancestor::*[position() = last()]",
      "/descendant::*/child::*[position() > 1][child::t0][1]",
  };
  for (const char* text : kTexts) ExpectAgreement(doc, text, &pool);
}

TEST(RankSelectionTest, NaiveEvaluatesEveryCandidate) {
  // The spec-literal engine walks the whole axis and evaluates the
  // predicate once per candidate; the cvt engine slices and stops.
  const Document doc = TestDocument(31, 400, 0.0);
  const int64_t candidates = CountT0(doc);
  ASSERT_GT(candidates, 10);
  const xpath::Query query = xpath::MustParse("/descendant::t0[position() < 3]");
  NaiveEvaluator naive;
  ASSERT_TRUE(naive.EvaluateAtRoot(doc, query).ok());
  EXPECT_GE(naive.last_eval_count(), candidates);
  CvtEvaluator cvt;
  ASSERT_TRUE(cvt.EvaluateAtRoot(doc, query).ok());
  EXPECT_LT(cvt.last_eval_count(), 5);
}

}  // namespace
}  // namespace gkx::eval
