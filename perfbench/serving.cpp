// The `serving` workload: read-only traffic over one loopback net::Client
// connection, through net::Server, to a 2-shard ShardedQueryService.
//
// Popularity is zipfian over (document, query) pairs, and there are more
// distinct pairs than the two shards' answer caches hold, so the hot head
// hits and the tail evicts and misses. Each shard runs its sub-batch on one
// thread (batch_workers = 1) while the router scatters the two sub-batches
// over the pool: request order inside a shard is then fixed, and so is
// every cache hit and miss at a fixed seed.

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "perfbench/common.hpp"
#include "perfbench/inputs.hpp"
#include "perfbench/support.hpp"
#include "service/sharded_service.hpp"
#include "testkit/oracle.hpp"

namespace gkx::perfbench {
namespace {

struct Sizes {
  int docs;
  int min_nodes;
  int max_nodes;
  int batch;
  int warm_batches;
  int det_batches;  // deterministic prefix of the measured schedule
  int setups;
  int check_every;   // untimed answer check on every n-th batch
  int sample_every;  // traced run: re-issue every n-th batch layer by layer
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kSmoke) return {40, 20, 60, 8, 20, 40, 1, 4, 4};
  return {4000, 150, 350, 64, 750, 250, 5, 16, 4};
}

constexpr int kShards = 2;
constexpr double kZipfS = 1.0;

std::string DocKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "s%05d", i);
  return buf;
}

// Zipf rank → pair through a fixed bijection, so the popular pairs spread
// over documents and shards instead of clustering on document 0.
class PairSampler {
 public:
  PairSampler(int64_t pairs, uint64_t seed) : n_(pairs), zipf_(pairs, kZipfS) {
    stride_ = static_cast<int64_t>(seed % 7919) * 2 + 1000003;
    while (std::gcd(stride_, n_) != 1) ++stride_;
    offset_ = static_cast<int64_t>(seed % static_cast<uint64_t>(n_));
  }
  int64_t Next(Rng* rng) const {
    const int64_t rank = zipf_.Sample(rng);
    return static_cast<int64_t>((static_cast<__int128>(rank) * stride_ + offset_) % n_);
  }

 private:
  int64_t n_;
  ZipfSampler zipf_;
  int64_t stride_ = 1;
  int64_t offset_ = 0;
};

struct System {
  std::unique_ptr<service::ShardedQueryService> router;
  std::unique_ptr<net::Server> server;
  net::Client client;

  ~System() {
    client.Close();
    if (server) server->Stop();
  }
};

}  // namespace

Outcome RunServing(const Args& args, Tracer* tracer) {
  Outcome out;
  const Sizes z = SizesFor(args.scale);
  const std::vector<QueryText> queries = MakeQuerySet(
      args.seed, {{Family::kPf, 12}, {Family::kCorePositive, 10}, {Family::kCoreNegated, 10},
                  {Family::kPositional, 8}, {Family::kHybrid, 8}});
  std::vector<std::string> texts;
  for (const auto& q : queries) texts.push_back(q.text);
  const auto plans = CompileAll(texts, &out);
  if (!out.errors.empty()) return out;
  const int64_t num_q = static_cast<int64_t>(texts.size());
  const int64_t num_pairs = static_cast<int64_t>(z.docs) * num_q;
  const PairSampler sampler(num_pairs, args.seed);
  auto doc_xml = [&](int i) {
    Rng rng(args.seed * 1000003ULL + static_cast<uint64_t>(i));
    return MakeDocumentXml(&rng, static_cast<int32_t>(rng.UniformInt(z.min_nodes, z.max_nodes)));
  };
  auto next_batch = [&](Rng* rng, std::vector<int64_t>* pairs,
                        std::vector<net::WireRequest>* reqs) {
    pairs->clear();
    reqs->clear();
    for (int i = 0; i < z.batch; ++i) {
      const int64_t p = sampler.Next(rng);
      pairs->push_back(p);
      reqs->push_back({DocKey(static_cast<int>(p / num_q)), texts[static_cast<size_t>(p % num_q)]});
    }
  };

  ThreadPool pool(kPoolWidth);
  service::ShardedQueryService::Options options;
  options.shards = kShards;
  options.pool = &pool;
  options.shard.pool = &pool;
  options.shard.batch_workers = 1;
  options.shard.exec.pool = &pool;
  if (args.inject_fault) options.shard.answer_tap = CorruptingTap();

  out.config["serving.docs"] = std::to_string(z.docs);
  out.config["serving.queries"] = std::to_string(num_q);
  out.config["serving.distinct_pairs"] = std::to_string(num_pairs);
  out.config["serving.answer_cache_entries_per_shard"] =
      std::to_string(options.shard.answer_cache.capacity);
  out.config["serving.batch"] = std::to_string(z.batch);
  out.config["serving.shards"] = std::to_string(kShards);
  out.config["serving.connections"] = "1";
  out.config["serving.shard_batch_workers"] = "1";

  // ------------------------------------------------------------- set-up
  // Repeated; the median is setup_s and the last system is measured.
  std::unique_ptr<System> sys;
  // The set-ups and the measured phase each get their own speed factor.
  HostSpeed setup_speed, speed;
  std::vector<double> setup_s, setup_wall_s;
  Rng sched(0);
  std::vector<int64_t> pairs;
  std::vector<net::WireRequest> reqs;
  const int setups = args.trace ? 1 : z.setups;
  double ingest_bytes = 0, ingest_s = 0;
  for (int rep = 0; rep < setups; ++rep) {
    for (int k = 0; k < 10; ++k) setup_speed.Sample();
    sys.reset();
    sys = std::make_unique<System>();
    sched = Rng(args.seed ^ 0xba7c4ULL);
    ingest_bytes = ingest_s = 0;
    PhaseClock clock;
    clock.Start();
    const int64_t setup_span = tracer->Begin("setup", -1, -1);
    sys->router = std::make_unique<service::ShardedQueryService>(options);
    for (int i = 0; i < z.docs; ++i) {
      clock.Pause();
      const std::string xml = doc_xml(i);
      clock.Resume();
      const int64_t t0 = NowNs();
      const int64_t span = tracer->Begin("xml.register", setup_span, -1,
                                         static_cast<int64_t>(xml.size()));
      Status st = sys->router->RegisterXml(DocKey(i), xml);
      tracer->End(span);
      ingest_s += MsSince(t0) / 1e3;
      ingest_bytes += static_cast<double>(xml.size());
      if (!st.ok()) out.errors.push_back("RegisterXml: " + st.ToString());
    }
    sys->server = std::make_unique<net::Server>(sys->router.get(), net::Server::Options{});
    Status st = sys->server->Start();
    if (st.ok()) st = sys->client.Connect("127.0.0.1", sys->server->port());
    if (!st.ok()) {
      out.errors.push_back("server: " + st.ToString());
      return out;
    }
    for (int b = 0; b < z.warm_batches; ++b) {
      clock.Pause();
      next_batch(&sched, &pairs, &reqs);
      clock.Resume();
      for (const auto& r : sys->client.SubmitBatch(reqs)) {
        if (!r.ok()) out.errors.push_back("warm-up: " + r.status().ToString());
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

  service::ShardedQueryService& router = *sys->router;
  ExpectedAnswers expected;
  auto check = [&](const std::vector<int64_t>& ps,
                   const std::vector<Result<net::Client::Answer>>& got,
                   const char* where) {
    for (size_t i = 0; i < ps.size(); ++i) {
      const int64_t p = ps[i];
      const std::string key = DocKey(static_cast<int>(p / num_q));
      auto stored = router.shard(router.ShardOf(key)).documents().Get(key);
      const std::string& want =
          expected.Get(p, stored->doc(), plans[static_cast<size_t>(p % num_q)]);
      if (!got[i].ok() || testkit::AnswerDigest(got[i].value().value) != want) {
        if (out.errors.size() < 5) {
          out.errors.push_back(std::string(where) + ": wrong answer for " + key +
                               " / " + texts[static_cast<size_t>(p % num_q)]);
        }
      }
    }
  };

  // ------------------------------------------------------ measured phases
  // Untraced: the end-to-end metrics. Traced (trace run only, after an
  // untraced half of the same length): spans, plus every sample_every-th
  // batch re-issued through each lower entry point on warm state.
  const Rng measured_start = sched;
  uint64_t digest = 1469598103934665603ULL;
  double frame_bytes_per_req = 0;
  int frame_samples = 0;
  auto run_phase = [&](double seconds, bool traced, PhaseRecord* rec, bool deterministic) {
    PhaseClock clock;
    clock.Start();
    service::ServiceStats det_before;
    if (deterministic) det_before = router.Stats();
    for (int64_t b = 0; clock.Seconds() < seconds || (deterministic && b < z.det_batches); ++b) {
      clock.Pause();
      speed.MaybeSample();
      next_batch(&sched, &pairs, &reqs);
      if (deterministic && b < z.det_batches) {
        for (int64_t p : pairs) digest = Fnv1a(std::to_string(p) + ",", digest);
      }
      clock.Resume();
      const int64_t op = traced ? tracer->Begin("op", -1, b, z.batch) : -1;
      const int64_t call = traced ? tracer->Begin("net.submit_batch", op, b, z.batch) : -1;
      const int64_t t0 = NowNs();
      const int64_t c0 = CpuNs();
      auto results = sys->client.SubmitBatch(reqs);
      const double cpu_ms = CpuMsSince(c0);
      const double ms = MsSince(t0);
      tracer->End(call);
      tracer->End(op);
      rec->reads.push_back({static_cast<int>(reqs.size()), ms, cpu_ms});
      out.attempted += static_cast<int64_t>(reqs.size());
      for (const auto& r : results) out.failed += r.ok() ? 0 : 1;
      if (deterministic && b + 1 == z.det_batches) {
        clock.Pause();
        AddDeterministicCounts(det_before, router.Stats(), &out);
        clock.Resume();
      }
      if (b % z.check_every == 0) {
        clock.Pause();
        check(pairs, results, "measured");
        clock.Resume();
      }
      if (traced && b % z.sample_every == 0) {
        clock.Pause();
        const int64_t probe = tracer->Begin("probe", -1, b);
        // Wire again, now warm, with the frame sizes the codec produces.
        const int64_t net_span = tracer->Begin("net.submit_batch", probe, b, z.batch);
        auto warm = sys->client.SubmitBatch(reqs);
        tracer->End(net_span);
        net::Message request;
        request.type = net::MsgType::kSubmitBatch;
        request.requests = reqs;
        net::Message response;
        response.type = net::MsgType::kAnswerBatch;
        for (auto& r : warm) {
          response.answers.push_back(
              {r.status(), r.ok() ? std::move(r).value() : net::Client::Answer{}});
        }
        // Each frame adds an 8-byte [size][crc] header to its payload.
        frame_bytes_per_req += static_cast<double>(net::EncodeMessage(request).size() +
                                                   net::EncodeMessage(response).size() + 16) /
                               static_cast<double>(reqs.size());
        ++frame_samples;
        // Router, then each owning shard on its sub-batch.
        std::vector<service::QueryService::Request> sreqs;
        std::vector<std::vector<service::QueryService::Request>> sub(kShards);
        for (const auto& r : reqs) {
          sreqs.push_back({r.doc_key, r.query});
          sub[static_cast<size_t>(router.ShardOf(r.doc_key))].push_back({r.doc_key, r.query});
        }
        const int64_t router_span = tracer->Begin("router.submit_batch", probe, b, z.batch);
        router.SubmitBatch(sreqs);
        tracer->End(router_span);
        for (int s = 0; s < kShards; ++s) {
          if (sub[static_cast<size_t>(s)].empty()) continue;
          const int64_t span = tracer->Begin(
              "shard.submit_batch", probe, b,
              static_cast<int64_t>(sub[static_cast<size_t>(s)].size()), std::to_string(s));
          router.shard(s).SubmitBatch(sub[static_cast<size_t>(s)]);
          tracer->End(span);
        }
        // One request at a time: a warm Submit, a cold compile and a bare
        // RunPlan on the stored document.
        eval::Engine engine;
        for (size_t i = 0; i < reqs.size(); ++i) {
          service::QueryService& shard = router.shard(router.ShardOf(reqs[i].doc_key));
          int64_t span = tracer->Begin("service.submit_hit", probe, b);
          shard.Submit(reqs[i].doc_key, reqs[i].query);
          tracer->End(span);
          span = tracer->Begin("plan.compile", probe, b);
          auto plan = eval::Engine::Compile(reqs[i].query);
          tracer->End(span);
          auto stored = shard.documents().Get(reqs[i].doc_key);
          span = tracer->Begin("engine.run_plan", probe, b);
          auto answer = engine.RunPlan(stored->doc(), plan.value());
          tracer->End(span);
          if (answer.ok()) {
            tracer->SetLabel(span, RouteFamily(answer.value().evaluator));
          }
        }
        tracer->End(probe);
        clock.Resume();
      }
    }
    rec->seconds = clock.Seconds();
    rec->cpu_seconds = clock.CpuSeconds();
  };

  const service::ServiceStats before = router.Stats();
  PhaseRecord phase;
  run_phase(args.trace ? args.seconds / 2 : args.seconds, false, &phase, true);
  int64_t requests = 0;
  for (const Sample& s : phase.reads) requests += s.ops;
  AddStatsDeltas(before, router.Stats(), requests, 0, &out);
  AddPhaseMetrics(phase, speed, &out);
  out.end_to_end["setup_s"] = Median(setup_s) / setup_speed.Factor();
  out.schedule_digest = digest;
  if (args.trace) {
    PhaseRecord traced;
    run_phase(args.seconds / 2, true, &traced, false);
    AddTraceOverhead(phase, traced, &out);
    if (frame_samples > 0) out.layer["net.frame_bytes_per_req"] = frame_bytes_per_req / frame_samples;
    out.end_to_end.clear();
  }

  // ---------------------------------------------------------------- gates
  // Replay the deterministic prefix of the measured schedule and check
  // every answer against a fresh Engine::RunPlan of the same pair.
  sched = measured_start;
  for (int b = 0; b < z.det_batches; ++b) {
    next_batch(&sched, &pairs, &reqs);
    check(pairs, sys->client.SubmitBatch(reqs), "replay");
  }

  return out;
}

}  // namespace gkx::perfbench
