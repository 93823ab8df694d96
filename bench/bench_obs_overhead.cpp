// EXP-OBS-OVERHEAD: what request tracing costs on the hottest serving
// path. Re-runs the EXP-MVIEW-WARM regime (repeated identical queries,
// warm plan + answer caches — requests that do almost no work, so any
// per-request bookkeeping is maximally visible) three ways:
//   * tracing off  — Options::obs.tracing = false; only the always-on
//     total-latency histogram records,
//   * tracing on   — per-stage stamps, per-route histograms, slow-query
//     eligibility checks on every request,
//   * (build-time) — configuring with -DGKX_OBS_DISABLED=ON compiles the
//     traced path out entirely; this binary then measures off vs off and
//     the ratio pins the escape hatch at ~1.0.
// The acceptance bar, self-checked below: traced throughput >= 95% of
// untraced (tracing costs < 5%). Both services are built up front and
// their rounds alternate (off/on, then on/off), each timed in the calling
// thread's CPU time — the batch runs inline (batch_workers = 1), so that
// clock holds all of its work and none of the scheduler's — and the bar
// holds on the median of the per-pair ratios, so drift across the run
// (frequency, a neighbour's load) hits both sides of each pair alike.

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "obs/trace.hpp"
#include "service/query_service.hpp"
#include "xml/generator.hpp"

namespace gkx {
namespace {

const char* kTemplates[] = {
    "/descendant::t0/child::t1",
    "//t2",
    "/descendant::t1[child::t2]",
    "/descendant::t0[not(child::t3)]",
    "/descendant::t2[position() = 2]",
    "count(/descendant::t1)",
    "/descendant::t3 | //t0/child::t2",
    "/descendant::t1/parent::t0",
    "/descendant::t0/child::t1[position() = 2]/descendant::t2",
};

void RegisterCorpus(service::QueryService& svc) {
  Rng rng(271);  // identical documents in every mode
  xml::RandomDocumentOptions options;
  options.text_probability = 0.3;
  for (int d = 0; d < 3; ++d) {
    options.node_count = 1500 << d;  // 1500 / 3000 / 6000 nodes
    GKX_CHECK(svc.RegisterDocument("big" + std::to_string(d),
                                   xml::RandomDocument(&rng, options))
                  .ok());
  }
}

std::vector<service::QueryService::Request> MakeRequests() {
  std::vector<service::QueryService::Request> requests;
  for (int d = 0; d < 3; ++d) {
    for (const char* query : kTemplates) {
      requests.push_back({"big" + std::to_string(d), query});
    }
  }
  return requests;
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::unique_ptr<service::QueryService> MakeService(bool tracing) {
  service::QueryService::Options options;
  options.plan_cache.capacity = 4096;
  options.batch_workers = 1;  // inline on the timing thread
  options.obs.tracing = tracing;
  options.obs.slow_query_ms = 1e9;  // threshold checks run; nothing logs
  auto svc = std::make_unique<service::QueryService>(options);
  RegisterCorpus(*svc);
  return svc;
}

/// One round: the whole request set kReps times from the warm answer
/// cache; returns requests per thread-CPU second.
double RoundQps(service::QueryService& svc,
                const std::vector<service::QueryService::Request>& requests,
                int reps) {
  const double start = ThreadCpuSeconds();
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& response : svc.SubmitBatch(requests)) {
      GKX_CHECK(response.ok());
    }
  }
  return static_cast<double>(requests.size()) * reps /
         (ThreadCpuSeconds() - start);
}

void PrintExcerpt(service::QueryService& svc) {
  // A few text-format lines as a README-able sample of the export.
  const std::string text = svc.ExportStats(service::StatsFormat::kText);
  std::printf("  traced service (ExportStats text excerpt):\n");
  size_t printed = 0, pos = 0;
  for (const char* want :
       {"gkx_service_requests ", "gkx_latency_ms_p99 ",
        "gkx_routes_pf_indexed_count ", "gkx_answer_cache_hits "}) {
    pos = text.find(want);
    if (pos == std::string::npos) continue;
    const size_t end = text.find('\n', pos);
    std::printf("    %s\n", text.substr(pos, end - pos).c_str());
    ++printed;
  }
  GKX_CHECK(printed > 0);  // the export really contains these series
}

void Run(bench::JsonReport* json) {
  const bool compiled_out = obs::kCompiledOut;
  auto off_svc = MakeService(false);
  auto on_svc = MakeService(true);
  const auto requests = MakeRequests();
  off_svc->SubmitBatch(requests);  // untimed: warm plan + answer caches
  on_svc->SubmitBatch(requests);

  const int kPairs = 21;
  const int kReps = 24;
  std::vector<double> off_qps, on_qps, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    // Alternate which side runs first, so neither always follows the other.
    double off = 0.0, on = 0.0;
    if (pair % 2 == 0) {
      off = RoundQps(*off_svc, requests, kReps);
      on = RoundQps(*on_svc, requests, kReps);
    } else {
      on = RoundQps(*on_svc, requests, kReps);
      off = RoundQps(*off_svc, requests, kReps);
    }
    off_qps.push_back(off);
    on_qps.push_back(on);
    ratios.push_back(on / off);
  }
  PrintExcerpt(*on_svc);

  const double ratio = bench::Median(ratios);
  std::vector<double> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double q1 = sorted[sorted.size() / 4];
  const double q3 = sorted[sorted.size() * 3 / 4];
  const int64_t per_round = static_cast<int64_t>(requests.size()) * kReps;

  bench::Table table({"tracing", "requests/round", "median qps (thread CPU)",
                      "traced/untraced (median of pairs)"});
  table.AddRow({"off", bench::Num(per_round),
                bench::Num(static_cast<int64_t>(bench::Median(off_qps))), "-"});
  table.AddRow({compiled_out ? "on (compiled out)" : "on",
                bench::Num(per_round),
                bench::Num(static_cast<int64_t>(bench::Median(on_qps))),
                bench::Ratio(ratio, 3) + " [q1 " + bench::Ratio(q1, 3) +
                    ", q3 " + bench::Ratio(q3, 3) + "]"});
  table.Print();

  for (const bool tracing : {false, true}) {
    json->AddRow(
        {{"scenario", bench::JsonStr("obs_overhead_warm")},
         {"tracing", bench::JsonStr(tracing ? "on" : "off")},
         {"compiled_out", bench::JsonNum(compiled_out ? 1.0 : 0.0)},
         {"requests_per_round", bench::JsonNum(static_cast<double>(per_round))},
         {"pairs", bench::JsonNum(kPairs)},
         {"median_qps_thread_cpu",
          bench::JsonNum(bench::Median(tracing ? on_qps : off_qps))},
         {"traced_over_untraced", bench::JsonNum(tracing ? ratio : 1.0)},
         {"traced_over_untraced_q1", bench::JsonNum(tracing ? q1 : 1.0)},
         {"traced_over_untraced_q3", bench::JsonNum(tracing ? q3 : 1.0)}});
  }

  // The acceptance bar: full tracing must cost < 5% on the warm-cache
  // path (and with GKX_OBS_DISABLED both modes are the same code).
  GKX_CHECK(ratio >= 0.95);
}

}  // namespace
}  // namespace gkx

int main() {
  gkx::bench::PrintHeader(
      "EXP-OBS-OVERHEAD: request tracing cost on the warm-answer-cache path",
      "observability context: per-stage timers, per-route histograms and "
      "slow-query checks run inside every Submit; the paper's evaluators "
      "are untouched — this prices the serving layer's bookkeeping",
      "21 alternating off/on round pairs over repeated identical queries "
      "with warm plan + answer caches, qps in thread CPU time, "
      "Options::obs.tracing off vs on (expect the median per-pair ratio "
      "traced >= 0.95x untraced; -DGKX_OBS_DISABLED=ON compiles the gap "
      "away)");
  gkx::bench::JsonReport json("obs_overhead", 271);
  gkx::Run(&json);
  json.Write(gkx::bench::RepoRootPath("BENCH_obs_overhead.json"));
  return 0;
}
