// Engine facade tests: route labels (bitset runs report pf-frontier or
// core-linear, everything else cvt, mixed plans the route list), segment
// shapes, parse error propagation, and end-to-end answers.

#include <gtest/gtest.h>

#include "eval/engine.hpp"
#include "xml/parser.hpp"

namespace gkx::eval {
namespace {

xml::Document Doc() {
  auto doc = xml::ParseDocument("<r><a><b/><b/></a><a/><c/></r>");
  GKX_CHECK(doc.ok());
  return std::move(doc).value();
}

TEST(EngineTest, DispatchesCoreToLinear) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a[child::b]");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "core-linear");
  EXPECT_TRUE(answer->fragment.in_core);
  EXPECT_EQ(answer->value.nodes(), (NodeSet{1}));
}

TEST(EngineTest, DispatchesPositionalToCvt) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a[position() = 2]");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "cvt");
  EXPECT_EQ(answer->fragment.smallest, xpath::Fragment::kPWF);
  EXPECT_EQ(answer->value.nodes(), (NodeSet{4}));
}

TEST(EngineTest, ScalarAnswer) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "count(/descendant::b) * 10");
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer->value.number(), 20.0);
  EXPECT_EQ(answer->fragment.smallest, xpath::Fragment::kFullXPath);
}

TEST(EngineTest, ParseErrorsPropagate) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "child::");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, PlansRunFromACustomContext) {
  xml::Document doc = Doc();
  Engine engine;
  auto path = Engine::Compile("child::b");
  ASSERT_TRUE(path.ok());
  auto nodes = engine.RunPlan(doc, *path, Context{1, 1, 1});
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->value.nodes(), (NodeSet{2, 3}));

  // A scalar root is one whole-expression cvt segment; it too reads the
  // context node.
  auto scalar = Engine::Compile("count(child::b) + position()");
  ASSERT_TRUE(scalar.ok());
  auto from_a = engine.RunPlan(doc, *scalar, Context{1, 2, 3});
  ASSERT_TRUE(from_a.ok());
  EXPECT_DOUBLE_EQ(from_a->value.number(), 4.0);
  EXPECT_EQ(from_a->evaluator, "cvt");
  auto from_root = engine.RunPlan(doc, *scalar);
  ASSERT_TRUE(from_root.ok());
  EXPECT_DOUBLE_EQ(from_root->value.number(), 1.0);
}

TEST(EngineTest, FragmentReportComplexityVerdicts) {
  xml::Document doc = Doc();
  Engine engine;
  auto pf = engine.Run(doc, "child::a/child::b");
  ASSERT_TRUE(pf.ok());
  EXPECT_EQ(pf->fragment.smallest, xpath::Fragment::kPF);
  EXPECT_NE(xpath::FragmentComplexity(pf->fragment.smallest).find("NL"),
            std::string_view::npos);
}

TEST(EngineTest, DispatchesPfToFrontier) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a/child::b");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "pf-frontier");
  EXPECT_EQ(answer->value.nodes(), (NodeSet{2, 3}));
}

TEST(EngineTest, HybridPlansReportTheRouteList) {
  // A PF-routable spine with one non-Core predicate stages: the evaluator
  // string is the per-segment route list, not a single engine name.
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a/child::b[position() = 2]");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "pf-frontier+cvt");
  EXPECT_EQ(answer->value.nodes(), (NodeSet{3}));

  auto reversed = engine.Run(doc, "/descendant::b[position() = 2]/parent::a");
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(reversed->evaluator, "cvt+pf-frontier");
  EXPECT_EQ(reversed->value.nodes(), (NodeSet{1}));
}

TEST(EngineTest, CompiledHybridPlanExposesSegments) {
  auto plan = Engine::Compile("/descendant::a/child::b[position() = 2]");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->branches.size(), 1u);
  ASSERT_EQ(plan->branches[0].segments.size(), 2u);
  EXPECT_EQ(plan->branches[0].segments[0].route, plan::Route::kPfFrontier);
  EXPECT_EQ(plan->branches[0].segments[1].route, plan::Route::kCvt);
  EXPECT_EQ(plan->route_label, "pf-frontier+cvt");
}

TEST(EngineTest, UniformPlansAreOneSegment) {
  const struct {
    const char* query;
    plan::Route route;
    const char* label;
  } cases[] = {
      {"/descendant::a/child::b", plan::Route::kPfFrontier, "pf-frontier"},
      {"/descendant::a[not(child::b)]/child::c", plan::Route::kCoreLinear,
       "core-linear"},
      {"/descendant::a[position() = 2]/child::b[position() = 1]",
       plan::Route::kCvt, "cvt"},
      {"count(/descendant::b) * 10", plan::Route::kCvt, "cvt"},
  };
  xml::Document doc = Doc();
  for (const auto& c : cases) {
    auto plan = Engine::Compile(c.query);
    ASSERT_TRUE(plan.ok()) << c.query;
    ASSERT_EQ(plan->branches.size(), 1u) << c.query;
    ASSERT_EQ(plan->branches[0].segments.size(), 1u) << c.query;
    EXPECT_EQ(plan->branches[0].segments[0].route, c.route) << c.query;
    EXPECT_EQ(plan->route_label, c.label) << c.query;

    // The executor traces exactly that one segment.
    Engine engine;
    plan::ExecTrace trace;
    auto answer = engine.RunPlan(doc, *plan, RootContext(doc), &trace);
    ASSERT_TRUE(answer.ok()) << c.query;
    EXPECT_EQ(answer->evaluator, c.label);
    ASSERT_EQ(trace.size(), 1u) << c.query;
    EXPECT_EQ(trace[0].route, c.route) << c.query;
  }
}

}  // namespace
}  // namespace gkx::eval
