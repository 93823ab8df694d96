// The `analytic` workload: in-process QueryService::SubmitBatch with the
// answer cache off, over a few large documents, so the engines and the
// plan/exec parallel thresholds do nearly all the work.
//
// Every batch is stratified: one request from each Figure 1 family (PF
// chain, positive Core, negated Core, positional pWF, staged hybrid) plus
// one instance of a hardness reduction whose answer is known from
// graphs::IsReachable or Circuit::Evaluate. Requests of a batch run one
// after another (batch_workers = 1) on one thread (exec.workers = 1): on
// the 4-vCPU VM this was tuned on, fanning out over 2 workers gave no more
// throughput (eval.parallel_speedup 0.82–0.98) and twice the run-to-run
// spread, because every fork/join waits for the slower of two contended
// vCPUs. The traced run still times each sampled plan at the pool width
// against one worker (eval.parallel_speedup).

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "perfbench/common.hpp"
#include "perfbench/inputs.hpp"
#include "perfbench/support.hpp"
#include "service/query_service.hpp"
#include "testkit/oracle.hpp"

namespace gkx::perfbench {
namespace {

struct Sizes {
  int docs;
  int nodes;
  int per_family;
  int reductions;  // instances of each of the three reductions
  int det_batches;
  int setups;
  int check_every;
  int sample_every;
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kSmoke) return {2, 3000, 4, 2, 10, 1, 2, 2};
  return {4, 120000, 12, 8, 60, 5, 8, 4};
}

constexpr Family kFamilies[] = {Family::kPf, Family::kCorePositive,
                                Family::kCoreNegated, Family::kPositional,
                                Family::kHybrid};
constexpr int kStrata = 6;  // the five families + one reduction instance

std::string DocKey(int i) { return "a" + std::to_string(i); }
std::string ReductionKey(int i) { return "r" + std::to_string(i); }

}  // namespace

Outcome RunAnalytic(const Args& args, Tracer* tracer) {
  Outcome out;
  const Sizes z = SizesFor(args.scale);
  std::vector<std::pair<Family, int>> counts;
  for (Family f : kFamilies) counts.push_back({f, z.per_family});
  const std::vector<QueryText> queries = MakeQuerySet(args.seed, counts);
  Rng reduction_rng(args.seed ^ 0x4ed0c7ULL);
  const std::vector<KnownAnswer> reductions =
      MakeReductionInstances(&reduction_rng, z.reductions);
  std::vector<std::string> texts;
  for (const auto& q : queries) texts.push_back(q.text);
  for (const auto& r : reductions) texts.push_back(r.query);
  const auto plans = CompileAll(texts, &out);
  if (!out.errors.empty()) return out;
  const int num_q = static_cast<int>(queries.size());
  const int num_r = static_cast<int>(reductions.size());
  auto doc_xml = [&](int i) {
    Rng rng(args.seed * 7919ULL + static_cast<uint64_t>(i));
    return MakeDocumentXml(&rng, z.nodes);
  };

  // A request names (document key, text index); pair ids key the expected
  // answers: family pairs first, then one id per reduction instance.
  struct Req {
    std::string doc;
    int text;
    int64_t pair;
  };
  auto family_req = [&](int doc, int text) {
    return Req{DocKey(doc), text, static_cast<int64_t>(doc) * num_q + text};
  };
  auto reduction_req = [&](int r) {
    return Req{ReductionKey(r), num_q + r, static_cast<int64_t>(z.docs) * num_q + r};
  };
  auto next_batch = [&](Rng* rng, std::vector<Req>* batch) {
    batch->clear();
    for (int f = 0; f < kStrata - 1; ++f) {
      const int text = f * z.per_family + static_cast<int>(rng->UniformInt(0, z.per_family - 1));
      batch->push_back(family_req(static_cast<int>(rng->UniformInt(0, z.docs - 1)), text));
    }
    batch->push_back(reduction_req(static_cast<int>(rng->UniformInt(0, num_r - 1))));
  };

  ThreadPool pool(kPoolWidth);
  service::QueryService::Options options;
  options.pool = &pool;
  options.batch_workers = 1;
  options.answer_cache_enabled = false;
  options.exec.pool = &pool;
  options.exec.workers = 1;
  if (args.inject_fault) options.answer_tap = CorruptingTap();
  out.config["analytic.docs"] = std::to_string(z.docs);
  out.config["analytic.nodes_per_doc"] = std::to_string(z.nodes);
  out.config["analytic.family_texts"] = std::to_string(num_q);
  out.config["analytic.reduction_instances"] = std::to_string(num_r);
  out.config["analytic.batch"] = std::to_string(kStrata);
  out.config["analytic.exec_workers"] = "1";
  out.config["analytic.batch_workers"] = "1";
  out.config["analytic.answer_cache"] = "off";

  // ------------------------------------------------------------- set-up
  // Parse + index every document and run every distinct pair once (the
  // first compile of every text). Repeated; the median is setup_s.
  std::unique_ptr<service::QueryService> svc;
  // The set-ups and the measured phase each get their own speed factor.
  HostSpeed setup_speed, speed;
  std::vector<double> setup_s, setup_wall_s;
  double ingest_bytes = 0, ingest_s = 0;
  const int setups = args.trace ? 1 : z.setups;
  for (int rep = 0; rep < setups; ++rep) {
    for (int k = 0; k < 10; ++k) setup_speed.Sample();
    svc.reset();
    ingest_bytes = ingest_s = 0;
    PhaseClock clock;
    clock.Start();
    const int64_t setup_span = tracer->Begin("setup", -1, -1);
    svc = std::make_unique<service::QueryService>(options);
    auto ingest = [&](const std::string& key, const std::string& xml) {
      const int64_t t0 = NowNs();
      const int64_t span = tracer->Begin("xml.register", setup_span, -1,
                                         static_cast<int64_t>(xml.size()));
      Status st = svc->RegisterXml(key, xml);
      tracer->End(span);
      ingest_s += MsSince(t0) / 1e3;
      ingest_bytes += static_cast<double>(xml.size());
      if (!st.ok()) out.errors.push_back("RegisterXml " + key + ": " + st.ToString());
    };
    for (int i = 0; i < z.docs; ++i) {
      clock.Pause();
      const std::string xml = doc_xml(i);
      clock.Resume();
      ingest(DocKey(i), xml);
    }
    for (int r = 0; r < num_r; ++r) ingest(ReductionKey(r), reductions[static_cast<size_t>(r)].xml);
    for (int d = 0; d < z.docs; ++d) {
      for (int q = 0; q < num_q; ++q) {
        if (!svc->Submit(DocKey(d), texts[static_cast<size_t>(q)]).ok()) {
          out.errors.push_back("warm-up failed: " + texts[static_cast<size_t>(q)]);
        }
      }
    }
    for (int r = 0; r < num_r; ++r) {
      if (!svc->Submit(ReductionKey(r), texts[static_cast<size_t>(num_q + r)]).ok()) {
        out.errors.push_back("warm-up failed on reduction " + std::to_string(r));
      }
    }
    tracer->End(setup_span);
    setup_s.push_back(clock.CpuSeconds());
    setup_wall_s.push_back(clock.Seconds());
    if (!out.errors.empty()) return out;
  }
  out.config["setup_s.each"] = JoinSeconds(setup_s);
  out.config["setup_wall_s.each"] = JoinSeconds(setup_wall_s);
  out.layer["xml.ingest_mb_per_s"] = ingest_bytes / 1048576.0 / ingest_s;

  ExpectedAnswers expected;
  auto check = [&](const Req& req, const Result<service::QueryService::Answer>& got,
                   const char* where) {
    bool good = got.ok();
    if (good && req.text >= num_q) {
      const eval::Value& v = got.value().value;
      good = v.is_node_set() &&
             v.nodes().empty() != reductions[static_cast<size_t>(req.text - num_q)].expected;
    }
    if (good) {
      auto stored = svc->documents().Get(req.doc);
      good = testkit::AnswerDigest(got.value().value) ==
             expected.Get(req.pair, stored->doc(), plans[static_cast<size_t>(req.text)]);
    }
    if (!good && out.errors.size() < 5) {
      out.errors.push_back(std::string(where) + ": wrong answer for " + req.doc + " / " +
                           texts[static_cast<size_t>(req.text)].substr(0, 80));
    }
  };

  // ------------------------------------------------------ measured phases
  Rng sched(args.seed ^ 0xa7a1ULL);
  uint64_t digest = 1469598103934665603ULL;
  std::vector<Req> batch;
  std::vector<service::QueryService::Request> reqs;
  // The probes' engines: one configured like the service (one worker) and
  // one at the pool width, for eval.parallel_speedup.
  eval::Engine engine;
  eval::Engine engine_wide;
  plan::ExecOptions wide;
  wide.pool = &pool;
  wide.workers = kPoolWidth;
  engine_wide.set_exec_options(wide);
  auto run_phase = [&](double seconds, bool traced, PhaseRecord* rec, bool deterministic) {
    PhaseClock clock;
    clock.Start();
    service::ServiceStats det_before;
    if (deterministic) det_before = svc->Stats();
    for (int64_t b = 0; clock.Seconds() < seconds || (deterministic && b < z.det_batches); ++b) {
      clock.Pause();
      speed.MaybeSample();
      next_batch(&sched, &batch);
      reqs.clear();
      for (const Req& r : batch) {
        reqs.push_back({r.doc, texts[static_cast<size_t>(r.text)]});
        if (deterministic && b < z.det_batches) {
          digest = Fnv1a(std::to_string(r.pair) + ",", digest);
        }
      }
      clock.Resume();
      const int64_t op = traced ? tracer->Begin("op", -1, b, kStrata) : -1;
      const int64_t call = traced ? tracer->Begin("service.submit_batch", op, b, kStrata) : -1;
      const int64_t t0 = NowNs();
      const int64_t c0 = CpuNs();
      auto results = svc->SubmitBatch(reqs);
      const double cpu_ms = CpuMsSince(c0);
      const double ms = MsSince(t0);
      tracer->End(call);
      tracer->End(op);
      rec->reads.push_back({kStrata, ms, cpu_ms});
      out.attempted += kStrata;
      for (const auto& r : results) out.failed += r.ok() ? 0 : 1;
      if (deterministic && b + 1 == z.det_batches) {
        clock.Pause();
        AddDeterministicCounts(det_before, svc->Stats(), &out);
        clock.Resume();
      }
      if (b % z.check_every == 0) {
        clock.Pause();
        for (size_t i = 0; i < batch.size(); ++i) check(batch[i], results[i], "measured");
        clock.Resume();
      }
      if (traced && b % z.sample_every == 0) {
        clock.Pause();
        const int64_t probe = tracer->Begin("probe", -1, b);
        for (const Req& r : batch) {
          const std::string& text = texts[static_cast<size_t>(r.text)];
          int64_t span = tracer->Begin("service.submit", probe, b);
          svc->Submit(r.doc, text);
          tracer->End(span);
          span = tracer->Begin("plan.compile", probe, b);
          auto plan = eval::Engine::Compile(text);
          tracer->End(span);
          auto stored = svc->documents().Get(r.doc);
          span = tracer->Begin("engine.run_plan", probe, b);
          auto answer = engine.RunPlan(stored->doc(), plan.value());
          tracer->End(span);
          const std::string family = answer.ok() ? RouteFamily(answer.value().evaluator) : "";
          tracer->SetLabel(span, family);
          span = tracer->Begin("engine.run_plan_wide", probe, b, kPoolWidth, family);
          engine_wide.RunPlan(stored->doc(), plan.value());
          tracer->End(span);
        }
        tracer->End(probe);
        clock.Resume();
      }
    }
    rec->seconds = clock.Seconds();
    rec->cpu_seconds = clock.CpuSeconds();
  };

  const service::ServiceStats before = svc->Stats();
  PhaseRecord phase;
  run_phase(args.trace ? args.seconds / 2 : args.seconds, false, &phase, true);
  AddStatsDeltas(before, svc->Stats(),
                 static_cast<int64_t>(phase.reads.size()) * kStrata, 0, &out);
  AddPhaseMetrics(phase, speed, &out);
  out.end_to_end["setup_s"] = Median(setup_s) / setup_speed.Factor();
  out.schedule_digest = digest;
  if (args.trace) {
    PhaseRecord traced;
    run_phase(args.seconds / 2, true, &traced, false);
    AddTraceOverhead(phase, traced, &out);
    out.end_to_end.clear();
  }

  // ---------------------------------------------------------------- gates
  // Every distinct pair once more through Submit: reductions against their
  // known answers, everything against a fresh Engine::RunPlan.
  for (int d = 0; d < z.docs; ++d) {
    for (int q = 0; q < num_q; ++q) {
      const Req req = family_req(d, q);
      check(req, svc->Submit(req.doc, texts[static_cast<size_t>(q)]), "replay");
    }
  }
  for (int r = 0; r < num_r; ++r) {
    const Req req = reduction_req(r);
    check(req, svc->Submit(req.doc, texts[static_cast<size_t>(req.text)]), "replay");
  }

  return out;
}

}  // namespace gkx::perfbench
