// Differential suite for intra-query parallel plan execution: the same
// plan run with workers ∈ {1, 2, 4, 8} — thresholds forced to 1 so
// even tiny documents exercise the partitioned sweeps and the concurrent
// per-origin cvt loop — must produce byte-identical node sets, and the
// ExecStats buckets must reconcile exactly against the plan's segment
// count. Covers hand-written hybrid plans, random documents across shapes
// (chains, bushy, mixed), random Core/PF queries run through the Engine
// facade, and the ThreadPool exception containment on the executor path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/thread_pool.hpp"
#include "eval/engine.hpp"
#include "plan/exec.hpp"
#include "xml/generator.hpp"
#include "xpath/generator.hpp"
#include "xpath/printer.hpp"

namespace gkx::plan {
namespace {

using eval::Engine;
using xml::Document;

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

/// Segment count of a plan — what the ExecStats buckets must sum to after
/// exactly one ExecuteStaged call.
int64_t SegmentCount(const Physical& plan) {
  int64_t total = 0;
  for (const BranchProgram& branch : plan.branches) {
    total += static_cast<int64_t>(branch.segments.size());
  }
  return total;
}

/// Whether the plan mixes cvt and bitset segments (a hybrid plan): Lower
/// fuses same-engine neighbours in the route label, so exactly the mixed
/// plans have a '+' in it.
bool IsHybrid(const Physical& plan) {
  return plan.route_label.find('+') != std::string::npos;
}

int64_t BucketSum(const ExecStats& stats) {
  return stats.parallel_segments.load(std::memory_order_relaxed) +
         stats.sequential_segments.load(std::memory_order_relaxed) +
         stats.skipped_segments.load(std::memory_order_relaxed);
}

/// Runs `plan` sequentially and at every worker count with forced
/// thresholds, asserting byte-identical values and exact stats
/// reconciliation at each setting.
void ExpectParallelAgreement(const Document& doc, const Physical& plan,
                             const std::string& label) {
  const eval::Context ctx = eval::RootContext(doc);

  auto sequential = ExecuteStaged(doc, plan, ctx);
  ASSERT_TRUE(sequential.ok()) << label << ": " << sequential.status().ToString();
  const eval::Value& expected = *sequential;

  for (int workers : kWorkerCounts) {
    ExecOptions opts;
    opts.pool = &ThreadPool::Shared();
    opts.workers = workers;
    opts.min_parallel_nodes = 1;   // force partitioned sweeps at any |D|
    opts.min_parallel_origins = 1; // force the concurrent cvt origin loop
    ExecStats stats;
    ExecTrace trace;
    auto parallel = ExecuteStaged(doc, plan, ctx, &trace, opts, &stats);
    ASSERT_TRUE(parallel.ok())
        << label << " workers=" << workers << ": "
        << parallel.status().ToString();
    EXPECT_TRUE(parallel->Equals(expected))
        << label << " workers=" << workers
        << ": parallel answer diverged from sequential";
    // Every dispatched segment lands in exactly one bucket, and the trace
    // reports every segment (skipped ones at 0.0s).
    EXPECT_EQ(BucketSum(stats), SegmentCount(plan))
        << label << " workers=" << workers;
    EXPECT_EQ(static_cast<int64_t>(trace.size()), SegmentCount(plan))
        << label << " workers=" << workers;
    if (workers <= 1) {
      EXPECT_EQ(stats.parallel_segments.load(std::memory_order_relaxed), 0)
          << label << ": sequential run recorded parallel segments";
    }
  }
}

Document DeepDocument(uint64_t seed, int32_t nodes, double chain_bias) {
  Rng rng(seed);
  xml::RandomDocumentOptions options;
  options.node_count = nodes;
  options.tag_alphabet = 4;
  options.chain_bias = chain_bias;
  return xml::RandomDocument(&rng, options);
}

// The hybrid corpus: PF-routable spines with one non-Core predicate, the
// exact shape BENCH_fragments measures. Each compiles to a hybrid plan with
// bitset segments flanking a cvt segment.
const char* kHybridQueries[] = {
    "/descendant::t0/descendant::t1/descendant::t2/child::t3"
    "[position() = 1]",
    "/descendant::t0/descendant::t1/child::t2[count(child::t3) = 1]",
    "/descendant::t0/descendant::t1/child::t2[position() = last()]"
    "/child::t3",
    "/descendant::t0[child::t1]/descendant::t2[position() = 2]"
    "/descendant::t3",
};

TEST(StagedParallelTest, HybridPlansByteIdenticalAcrossWorkerCounts) {
  const Document doc = DeepDocument(4242, 2000, 0.85);
  for (const char* text : kHybridQueries) {
    auto plan = Engine::Compile(text);
    ASSERT_TRUE(plan.ok()) << text;
    ExpectParallelAgreement(doc, *plan, text);
  }
}

TEST(StagedParallelTest, DocumentShapeSweep) {
  // Chains stress descendant/ancestor block scans (deep carry chains);
  // bushy documents stress child/parent membership tests; the small sizes
  // stress partition edge cases (fewer words than chunks, empty tails).
  const struct {
    int32_t nodes;
    double chain_bias;
  } shapes[] = {{1, 0.0},   {2, 1.0},   {63, 0.5},  {64, 0.9},
                {65, 0.1},  {129, 0.95}, {512, 0.0}, {1500, 0.7}};
  for (const auto& shape : shapes) {
    const Document doc = DeepDocument(7 + shape.nodes, shape.nodes,
                                      shape.chain_bias);
    for (const char* text : kHybridQueries) {
      auto plan = Engine::Compile(text);
      ASSERT_TRUE(plan.ok()) << text;
      ExpectParallelAgreement(
          doc, *plan,
          std::string(text) + " @nodes=" + std::to_string(shape.nodes));
    }
  }
}

TEST(StagedParallelTest, RandomCoreQueriesThroughEngineFacade) {
  // Engine-level coverage: set_exec_options must flow into every plan's
  // execution without changing answers.
  const Document doc = DeepDocument(99, 800, 0.6);
  Rng rng(20260807);
  xpath::RandomQueryOptions qopts;
  qopts.fragment = xpath::Fragment::kCore;
  qopts.max_condition_depth = 2;

  for (int trial = 0; trial < 40; ++trial) {
    xpath::Query query = xpath::RandomQuery(&rng, qopts);
    const std::string text = xpath::ToXPathString(query);
    Engine::Plan plan = Engine::CompileParsed(std::move(query));

    Engine sequential_engine;
    auto expected = sequential_engine.RunPlan(doc, plan);
    ASSERT_TRUE(expected.ok()) << text << ": " << expected.status().ToString();

    for (int workers : kWorkerCounts) {
      if (workers == 1) continue;
      Engine engine;
      ExecOptions opts;
      opts.pool = &ThreadPool::Shared();
      opts.workers = workers;
      opts.min_parallel_nodes = 1;
      opts.min_parallel_origins = 1;
      engine.set_exec_options(opts);
      ExecStats stats;
      engine.set_exec_stats(&stats);
      auto actual = engine.RunPlan(doc, plan);
      ASSERT_TRUE(actual.ok()) << text << " workers=" << workers << ": "
                               << actual.status().ToString();
      ASSERT_EQ(actual->value.type(), expected->value.type()) << text;
      if (expected->value.is_node_set()) {
        EXPECT_EQ(actual->value.nodes(), expected->value.nodes())
            << text << " workers=" << workers;
      }
      EXPECT_EQ(BucketSum(stats), SegmentCount(plan))
          << text << " workers=" << workers;
    }
  }
}

TEST(StagedParallelTest, MixedFragmentRandomQueriesStayIdentical) {
  // Arithmetic-fragment queries route (partly or wholly) through cvt; every
  // plan, scalar roots included, runs the differential, and the hybrid ones
  // exercise the concurrent memo between bitset seams under forced
  // chunking.
  const Document doc = DeepDocument(123, 600, 0.75);
  Rng rng(5150);
  xpath::RandomQueryOptions qopts;
  qopts.fragment = xpath::Fragment::kFullXPath;
  qopts.max_condition_depth = 2;

  int hybrid_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    xpath::Query query = xpath::RandomQuery(&rng, qopts);
    const std::string text = xpath::ToXPathString(query);
    Engine::Plan plan = Engine::CompileParsed(std::move(query));
    if (IsHybrid(plan)) ++hybrid_seen;
    ExpectParallelAgreement(doc, plan, text);
  }
  // The generator mix must actually produce hybrid plans, or the seams
  // under concurrency go unpinned.
  EXPECT_GT(hybrid_seen, 0);
}

TEST(StagedParallelTest, WorkersWithoutPoolFallBackToSharedPool) {
  // ExecOptions{workers > 1, pool == nullptr} must resolve to the shared
  // pool rather than crash or silently sequentialize incorrectly.
  const Document doc = DeepDocument(31337, 1024, 0.8);
  auto plan = Engine::Compile(kHybridQueries[0]);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(IsHybrid(*plan));
  const eval::Context ctx = eval::RootContext(doc);

  auto sequential = ExecuteStaged(doc, *plan, ctx);
  ASSERT_TRUE(sequential.ok());

  ExecOptions opts;  // pool deliberately left null
  opts.workers = 4;
  opts.min_parallel_nodes = 1;
  opts.min_parallel_origins = 1;
  auto parallel = ExecuteStaged(doc, *plan, ctx, nullptr, opts, nullptr);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->nodes(), sequential->nodes());
}

TEST(StagedParallelTest, DefaultThresholdsKeepSmallDocumentsSequential) {
  // Cost-model guardrail: with default thresholds a sub-threshold document
  // must not fork — every non-skipped segment lands in `sequential`.
  const Document doc = DeepDocument(77, 256, 0.5);
  ASSERT_LT(doc.size(), kDefaultCostModel.min_parallel_nodes);
  auto plan = Engine::Compile(kHybridQueries[0]);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(IsHybrid(*plan));

  ExecOptions opts;
  opts.pool = &ThreadPool::Shared();
  opts.workers = 8;  // parallelism requested, thresholds say no
  // Keep the default node threshold (gates the bitset sweeps) and push the
  // origin threshold out of reach so the cvt loop can't fork either.
  opts.min_parallel_origins = 1 << 20;
  ExecStats stats;
  auto result =
      ExecuteStaged(doc, *plan, eval::RootContext(doc), nullptr, opts, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.parallel_segments.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(BucketSum(stats), SegmentCount(*plan));
}

}  // namespace
}  // namespace gkx::plan
