// EXP-F1 — Figure 1: the combined-complexity landscape of XPath fragments.
// Classifies a corpus of queries (hand-written + random per fragment) into
// the paper's taxonomy and demonstrates the landscape empirically: each
// fragment is evaluated with the engine matching its complexity class, and
// per-fragment timings on a fixed document are reported.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.hpp"
#include "bench/bench_util.hpp"
#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "plan/exec.hpp"
#include "plan/physical.hpp"
#include "xml/generator.hpp"
#include "xpath/generator.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx {
namespace {

using xpath::Classify;
using xpath::Fragment;
using xpath::FragmentComplexity;
using xpath::FragmentName;

/// Whether a plan mixes cvt and bitset segments — the hybrid shape the
/// sections below measure. Lower fuses same-engine neighbours in the route
/// label, so exactly the mixed plans have a '+' in it.
bool MixesCvtAndBitset(const plan::Physical& plan) {
  return plan.route_label.find('+') != std::string::npos;
}

// Hybrid (staged) routing: queries whose spine is PF-routable but which
// contain one non-Core predicate. Whole-query classification demotes them
// entirely to CVT; the staged plan keeps the spine on bitset sweeps and
// drops into CVT only for the offending subtree. Expect >= 2x.
void RunHybridRouting(bench::JsonReport* json) {
  constexpr uint64_t kSeed = 4242;
  Rng rng(kSeed);
  xml::RandomDocumentOptions doc_options;
  // Deep documents are where the spine matters: a descendant step's
  // per-origin enumeration touches O(depth) ancestors' worth of subtree
  // per origin under CVT, while the frontier sweep stays O(|D|) total.
  doc_options.node_count = 8000;
  doc_options.tag_alphabet = 4;
  doc_options.chain_bias = 0.85;
  xml::Document doc = xml::RandomDocument(&rng, doc_options);

  // The hybrid-win regime: the descendant chain (the PF-routable spine) is
  // where the work is — whole-query CVT pays per-origin axis enumeration
  // and per-step sort/dedup over large intermediate node sets there, while
  // the staged plan runs it as O(|D|) bitset sweeps. The one non-Core
  // predicate sits on a cheap-axis step, so the unavoidable CVT segment is
  // small in both plans.
  const char* queries[] = {
      "/descendant::t0/descendant::t1/descendant::t2/child::t3"
      "[position() = 1]",
      "/descendant::t0/descendant::t1/child::t2[count(child::t3) = 1]",
      "/descendant::t0/descendant::t1/child::t2[position() = last()]"
      "/child::t3",
  };
  constexpr int kReps = 3;

  bench::Table table({"query", "plan route", "hybrid ms", "whole-query cvt ms",
                      "speedup", "answers"});
  eval::Engine engine;
  for (const char* text : queries) {
    auto plan = eval::Engine::Compile(text);
    GKX_CHECK(plan.ok());
    GKX_CHECK(MixesCvtAndBitset(*plan));

    // Best-of-reps on both sides: robust to scheduler noise on shared CI
    // runners (a pause inflates the mean but rarely every rep).
    double hybrid_seconds = 1e99;
    Result<eval::Engine::Answer> hybrid = engine.RunPlan(doc, *plan);
    for (int r = 0; r < kReps; ++r) {
      Stopwatch sw;
      hybrid = engine.RunPlan(doc, *plan);
      hybrid_seconds = std::min(hybrid_seconds, sw.ElapsedSeconds());
    }
    GKX_CHECK(hybrid.ok());

    // Forced whole-query CVT on the same normalized AST — what the old
    // whole-query dispatch did to every mixed query. A FRESH evaluator per
    // rep keeps this baseline cold: the dispatch it models rebinds (and so
    // refills its tables) on every query, whereas the hybrid side above
    // runs on a persistent Engine whose binds stay warm across reps — the
    // serving configuration each side actually has.
    double cvt_seconds = 1e99;
    Result<eval::Value> forced =
        eval::CvtEvaluator().Evaluate(doc, plan->query, eval::RootContext(doc));
    for (int r = 0; r < kReps; ++r) {
      eval::CvtEvaluator cvt;
      Stopwatch sw;
      forced = cvt.Evaluate(doc, plan->query, eval::RootContext(doc));
      cvt_seconds = std::min(cvt_seconds, sw.ElapsedSeconds());
    }
    GKX_CHECK(forced.ok());

    const bool identical = forced->Equals(hybrid->value);
    GKX_CHECK(identical);
    const double speedup = cvt_seconds / hybrid_seconds;
    table.AddRow({text, hybrid->evaluator, bench::Millis(hybrid_seconds),
                  bench::Millis(cvt_seconds), bench::Ratio(speedup),
                  bench::PassFail(identical)});
    json->AddRow({{"section", bench::JsonStr("hybrid")},
                  {"seed", bench::JsonNum(static_cast<double>(kSeed))},
                  {"query", bench::JsonStr(text)},
                  {"route", bench::JsonStr(hybrid->evaluator)},
                  {"hybrid_ms", bench::JsonNum(hybrid_seconds * 1e3)},
                  {"whole_cvt_ms", bench::JsonNum(cvt_seconds * 1e3)},
                  {"speedup", bench::JsonNum(speedup)},
                  {"doc_nodes", bench::JsonNum(doc_options.node_count)}});
    // The acceptance bar for staged execution: the PF-routable spine must
    // buy at least 2x over whole-query CVT on every scenario.
    GKX_CHECK(speedup >= 2.0);
  }
  table.Print();
}

// The hybrid plans RunParallelScaling and RunParallelCrossover time, with
// the prefix whose answer is the origin list of each plan's cvt step.
struct ScalingCase {
  const char* query;
  const char* cvt_origins;  // the path before the cvt step
  double committed_hybrid_ms;
};

// The committed sequential hybrid_ms values for the 8000-node document
// recipe below, as recorded in BENCH_fragments.json at commit 72db9df —
// the last commit before parallel execution. They stay in the JSON for
// the trajectory; no bar compares this host with them.
constexpr const char* kBaselineCommit = "72db9df";
constexpr ScalingCase kScalingCases[] = {
    {"/descendant::t0/descendant::t1/descendant::t2/child::t3"
     "[position() = 1]",
     "/descendant::t0/descendant::t1/descendant::t2", 0.616578},
    {"/descendant::t0/descendant::t1/child::t2[count(child::t3) = 1]",
     "/descendant::t0/descendant::t1", 0.482154},
    {"/descendant::t0/descendant::t1/child::t2[position() = last()]"
     "/child::t3",
     "/descendant::t0/descendant::t1", 0.47616},
};

xml::Document ScalingDocument(int32_t nodes) {
  Rng rng(4242);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = nodes;
  doc_options.tag_alphabet = 4;
  doc_options.chain_bias = 0.85;
  return xml::RandomDocument(&rng, doc_options);
}

/// Runs `plan` on `doc` once per configuration (the cold bind, untimed),
/// then `reps` rounds that each time every configuration once, rotating
/// which goes first; returns the median seconds per configuration. Every
/// answer must equal the first configuration's.
std::vector<double> InterleavedMedians(
    const xml::Document& doc, const eval::Engine::Plan& plan,
    const std::vector<plan::ExecOptions>& configs, int reps) {
  const size_t n = configs.size();
  std::vector<eval::Engine> engines(n);
  std::vector<eval::Value> answers;
  for (size_t i = 0; i < n; ++i) {
    engines[i].set_exec_options(configs[i]);
    auto answer = engines[i].RunPlan(doc, plan);
    GKX_CHECK(answer.ok());
    answers.push_back(answer->value);
    GKX_CHECK(answers[i].Equals(answers[0]));
  }
  std::vector<std::vector<double>> seconds(n);
  for (int r = 0; r < reps; ++r) {
    for (size_t k = 0; k < n; ++k) {
      const size_t i = (k + static_cast<size_t>(r)) % n;
      Stopwatch sw;
      auto answer = engines[i].RunPlan(doc, plan);
      seconds[i].push_back(sw.ElapsedSeconds());
      GKX_CHECK(answer.ok() && answer->value.Equals(answers[0]));
    }
  }
  std::vector<double> medians;
  for (const auto& s : seconds) medians.push_back(bench::Median(s));
  return medians;
}

plan::ExecOptions Workers(int workers) {
  plan::ExecOptions opts;
  opts.pool = &ThreadPool::Shared();
  opts.workers = workers;
  return opts;
}

// Parallel intra-query scaling on the LOGCFL fragments: the same hybrid
// plans at 1/2/4/8 workers with the default cost model, answers
// self-checked byte-identical against workers=1. The bar is same-run
// (ROADMAP item 1): workers=4 is no slower than workers=1 of this binary
// on this host (>= 0.95x of its median). Where forking does not pay, the
// cost model must choose sequential execution — RunParallelCrossover
// measures where it pays.
void RunParallelScaling(bench::JsonReport* json) {
  const xml::Document doc = ScalingDocument(8000);
  constexpr int kReps = 15;
  constexpr int kWorkerCounts[] = {1, 2, 4, 8};
  const unsigned cores = std::thread::hardware_concurrency();

  bench::Table table({"query", "workers", "median ms", "vs workers=1",
                      "vs committed", "answers"});
  for (const ScalingCase& c : kScalingCases) {
    auto plan = eval::Engine::Compile(c.query);
    GKX_CHECK(plan.ok());
    GKX_CHECK(MixesCvtAndBitset(*plan));

    std::vector<plan::ExecOptions> configs;
    for (int workers : kWorkerCounts) configs.push_back(Workers(workers));
    const std::vector<double> medians =
        InterleavedMedians(doc, *plan, configs, kReps);

    for (size_t i = 0; i < configs.size(); ++i) {
      const int workers = kWorkerCounts[i];
      const double vs_workers1 = medians[0] / medians[i];
      const double vs_committed = c.committed_hybrid_ms / (medians[i] * 1e3);
      table.AddRow({c.query, std::to_string(workers), bench::Millis(medians[i]),
                    bench::Ratio(vs_workers1), bench::Ratio(vs_committed),
                    bench::PassFail(true)});
      json->AddRow(
          {{"section", bench::JsonStr("parallel_scaling")},
           {"seed", bench::JsonNum(4242)},
           {"query", bench::JsonStr(c.query)},
           {"workers", bench::JsonNum(workers)},
           {"cores", bench::JsonNum(cores)},
           {"hybrid_ms", bench::JsonNum(medians[i] * 1e3)},
           {"speedup_vs_workers1", bench::JsonNum(vs_workers1)},
           {"committed_sequential_ms", bench::JsonNum(c.committed_hybrid_ms)},
           {"baseline_commit", bench::JsonStr(kBaselineCommit)},
           {"speedup_vs_committed", bench::JsonNum(vs_committed)},
           {"doc_nodes", bench::JsonNum(doc.size())}});
      // The acceptance bar: parallel never loses to sequential of the
      // same binary in the same run.
      if (workers == 4) GKX_CHECK(vs_workers1 >= 0.95);
    }
  }
  table.Print();
}

// Where intra-query parallelism starts to pay on this host: the hybrid
// plans at growing document sizes, workers=4 against workers=1, with one
// mechanism forced on at a time — the partitioned bitset sweeps (ratio by
// document size) and the concurrent per-origin cvt loop (ratio by the cvt
// step's origin count). The printed crossovers are where the cost model's
// min_parallel_nodes / min_parallel_origins belong: the smallest measured
// size from which the forced mechanism wins at every larger size.
void RunParallelCrossover(bench::JsonReport* json) {
  constexpr int32_t kSizes[] = {2000, 8000, 32000, 128000, 512000};
  constexpr int kReps = 9;
  constexpr int kOff = std::numeric_limits<int32_t>::max();
  plan::ExecOptions sweeps = Workers(4);
  sweeps.min_parallel_nodes = 1;
  sweeps.min_parallel_origins = kOff;
  plan::ExecOptions loop = Workers(4);
  loop.min_parallel_nodes = kOff;
  loop.min_parallel_origins = 1;

  struct Point {
    int64_t size;
    double ratio;
  };
  std::vector<Point> by_nodes, by_origins;
  bench::Table table({"doc nodes", "query", "cvt origins", "workers=1 ms",
                      "sweeps x", "origin loop x"});
  for (int32_t size : kSizes) {
    const xml::Document doc = ScalingDocument(size);
    eval::Engine counter;
    for (const ScalingCase& c : kScalingCases) {
      auto plan = eval::Engine::Compile(c.query);
      GKX_CHECK(plan.ok());
      auto origins = counter.Run(doc, std::string("count(") + c.cvt_origins + ")");
      GKX_CHECK(origins.ok());
      const auto origin_count = static_cast<int64_t>(origins->value.number());
      const std::vector<double> medians =
          InterleavedMedians(doc, *plan, {Workers(1), sweeps, loop}, kReps);
      const double sweeps_x = medians[0] / medians[1];
      const double loop_x = medians[0] / medians[2];
      by_nodes.push_back({size, sweeps_x});
      by_origins.push_back({origin_count, loop_x});
      table.AddRow({bench::Num(size), c.query, bench::Num(origin_count),
                    bench::Millis(medians[0]), bench::Ratio(sweeps_x),
                    bench::Ratio(loop_x)});
      json->AddRow({{"section", bench::JsonStr("parallel_crossover")},
                    {"query", bench::JsonStr(c.query)},
                    {"doc_nodes", bench::JsonNum(size)},
                    {"cvt_origins", bench::JsonNum(static_cast<double>(origin_count))},
                    {"workers1_ms", bench::JsonNum(medians[0] * 1e3)},
                    {"sweeps_speedup", bench::JsonNum(sweeps_x)},
                    {"origin_loop_speedup", bench::JsonNum(loop_x)}});
    }
  }
  table.Print();

  // The smallest measured size above every losing point; -1 when the
  // largest size loses.
  auto crossover = [](const std::vector<Point>& points) -> int64_t {
    int64_t losing = 0;
    for (const Point& p : points) {
      if (p.ratio < 1.0) losing = std::max(losing, p.size);
    }
    int64_t at = -1;
    for (const Point& p : points) {
      if (p.size > losing && (at < 0 || p.size < at)) at = p.size;
    }
    return at;
  };
  const int64_t nodes_at = crossover(by_nodes);
  const int64_t origins_at = crossover(by_origins);
  std::printf(
      "  crossover (workers=4 >= workers=1 from here up): sweeps %s "
      "(cost model min_parallel_nodes = %d), origin loop %s (cost model "
      "min_parallel_origins = %d per chunk)\n\n",
      nodes_at < 0 ? "none measured"
                   : ("at " + std::to_string(nodes_at) + " nodes").c_str(),
      plan::kDefaultCostModel.min_parallel_nodes,
      origins_at < 0 ? "none measured"
                     : ("at " + std::to_string(origins_at) + " origins").c_str(),
      plan::kDefaultCostModel.min_parallel_origins);
  json->AddRow(
      {{"section", bench::JsonStr("parallel_crossover_summary")},
       {"cores", bench::JsonNum(std::thread::hardware_concurrency())},
       {"sweeps_crossover_nodes", bench::JsonNum(static_cast<double>(nodes_at))},
       {"origin_loop_crossover_origins",
        bench::JsonNum(static_cast<double>(origins_at))},
       {"min_parallel_nodes",
        bench::JsonNum(plan::kDefaultCostModel.min_parallel_nodes)},
       {"min_parallel_origins",
        bench::JsonNum(plan::kDefaultCostModel.min_parallel_origins)}});
}

void RunCorpusClassification() {
  const char* corpus[] = {
      "/descendant::a/child::b",
      "a/b | c/d",
      "child::a[descendant::c]",
      "a[b and c or d]",
      "child::a[not(following-sibling::d)]",
      "a[b][c]",
      "child::a[position() + 1 = last()]",
      "a[2]",
      "a[not(position() = 2)]",
      "a[position() = 1][last() = 2]",
      "a[boolean(child::b)]",
      "a[concat('x', 'y') = 'xy']",
      "a[count(child::b) = 2]",
      "a[not(string(b) = 'x')]",
  };
  bench::Table table({"query", "smallest fragment", "combined complexity"});
  for (const char* text : corpus) {
    xpath::Query query = xpath::MustParse(text);
    Fragment smallest = Classify(query).smallest;
    table.AddRow({text, std::string(FragmentName(smallest)),
                  std::string(FragmentComplexity(smallest))});
  }
  table.Print();
}

void RunRandomCensusAndTiming(bench::JsonReport* json) {
  Rng rng(2003);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 400;
  xml::Document doc = xml::RandomDocument(&rng, doc_options);

  bench::Table table({"generated fragment", "queries", "dispatched engine",
                      "total eval ms", "classification agrees"});
  constexpr Fragment kFragments[] = {
      Fragment::kPF,  Fragment::kPositiveCore, Fragment::kCore,
      Fragment::kPWF, Fragment::kWF,           Fragment::kPXPath,
      Fragment::kFullXPath,
  };
  eval::Engine engine;
  for (Fragment fragment : kFragments) {
    xpath::RandomQueryOptions query_options;
    query_options.fragment = fragment;
    int agree = 0;
    constexpr int kQueries = 40;
    double total_seconds = 0;
    std::map<std::string, int> engine_census;
    for (int i = 0; i < kQueries; ++i) {
      xpath::Query query = xpath::RandomQuery(&rng, query_options);
      if (Classify(query).Contains(fragment)) ++agree;
      Stopwatch sw;
      const eval::Engine::Plan plan =
          eval::Engine::CompileParsed(std::move(query));
      auto answer = engine.RunPlan(doc, plan);
      total_seconds += sw.ElapsedSeconds();
      GKX_CHECK(answer.ok());
      ++engine_census[answer->evaluator];
    }
    // Generated queries may land in a smaller fragment than requested (e.g.
    // a WF query without arithmetic is Core) — show the dispatch census.
    std::string dispatched;
    for (const auto& [name, count] : engine_census) {
      if (!dispatched.empty()) dispatched += ", ";
      dispatched += name + " x" + std::to_string(count);
    }
    table.AddRow({std::string(FragmentName(fragment)), bench::Num(kQueries),
                  dispatched, bench::Millis(total_seconds),
                  bench::Num(agree) + "/" + bench::Num(kQueries)});
    json->AddRow({{"section", bench::JsonStr("census")},
                  {"fragment", bench::JsonStr(FragmentName(fragment))},
                  {"queries", bench::JsonNum(kQueries)},
                  {"total_ms", bench::JsonNum(total_seconds * 1e3)},
                  {"classification_agrees", bench::JsonNum(agree)}});
  }
  table.Print();
}

}  // namespace
}  // namespace gkx

int main() {
  gkx::bench::PrintHeader(
      "EXP-F1 (Figure 1): fragment landscape",
      "PF ⊂ pos.Core ⊂ {Core, pWF} ⊂ {WF, pXPath} ⊂ XPath; complexities "
      "NL-c / LOGCFL-c / P-c as labeled in Figure 1",
      "classification of a corpus + generated-per-fragment census with "
      "engine dispatch and timings, plus hybrid (staged) routing vs forced "
      "whole-query CVT — expect >= 2x on PF-spine queries — and intra-query "
      "parallelism against workers=1 of the same run (expect >= 0.95x at "
      "4 workers, with the measured crossover for the cost model)");
  gkx::bench::JsonReport json("fig1_fragments", 2003);
  gkx::RunCorpusClassification();
  gkx::RunRandomCensusAndTiming(&json);
  gkx::RunHybridRouting(&json);
  gkx::RunParallelCrossover(&json);
  gkx::RunParallelScaling(&json);
  json.Write(gkx::bench::RepoRootPath("BENCH_fragments.json"));
  return 0;
}
