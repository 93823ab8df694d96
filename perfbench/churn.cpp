// The `churn` workload: durable writes, standing queries and reads on one
// QueryService whose WAL lives in the run's work directory.
//
// One deterministic schedule; each step applies one seeded
// xml::RandomSubtreeEdit through UpdateDocument, waits in
// FlushSubscriptions until every standing query has been told, then issues
// k Submit reads. One driver thread and a flush after every write keep the
// cache hits, invalidations and subscription deliveries identical from run
// to run at a fixed seed; asynchronous delivery or concurrent writers would
// not.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hpp"
#include "perfbench/common.hpp"
#include "perfbench/inputs.hpp"
#include "perfbench/support.hpp"
#include "service/query_service.hpp"
#include "testkit/oracle.hpp"
#include "xml/edit.hpp"
#include "xml/generator.hpp"
#include "xml/serializer.hpp"

namespace gkx::perfbench {
namespace {

struct Sizes {
  int groups;
  int docs_per_group;
  int nodes;
  int exact_subs;
  int prefix_subs;
  int reads_per_step;
  int det_steps;
  int setups;
  int sample_every;
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kSmoke) return {2, 4, 200, 12, 2, 4, 20, 1, 2};
  return {24, 16, 4000, 1152, 72, 4, 300, 5, 8};
}

std::string DocKey(int group, int doc) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "g%02d/d%02d", group, doc);
  return buf;
}

std::string GroupSelector(int group) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "g%02d/*", group);
  return buf;
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += static_cast<int64_t>(entry.file_size(ec));
  }
  return total;
}

// What every subscriber has been told: per (subscription, document), the
// initial answer with every delivered diff applied.
class Deliveries {
 public:
  mview::SubscriptionCallback Callback() {
    return [this](const mview::SubscriptionEvent& e) {
      std::lock_guard<std::mutex> lock(mu_);
      eval::NodeSet& state = state_[e.subscription][e.doc_key];
      eval::NodeSet kept;
      std::set_difference(state.begin(), state.end(), e.removed.begin(),
                          e.removed.end(), std::back_inserter(kept));
      state.clear();
      std::set_union(kept.begin(), kept.end(), e.added.begin(), e.added.end(),
                     std::back_inserter(state));
    };
  }

  eval::NodeSet State(int64_t subscription, const std::string& doc) {
    std::lock_guard<std::mutex> lock(mu_);
    auto sub = state_.find(subscription);
    if (sub == state_.end()) return {};
    auto it = sub->second.find(doc);
    return it == sub->second.end() ? eval::NodeSet{} : it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<int64_t, std::unordered_map<std::string, eval::NodeSet>> state_;
};

struct Standing {
  std::string selector;
  int text = 0;
  int64_t id = 0;
};

}  // namespace

Outcome RunChurn(const Args& args, Tracer* tracer) {
  Outcome out;
  const Sizes z = SizesFor(args.scale);
  const int num_docs = z.groups * z.docs_per_group;
  const std::vector<QueryText> queries = MakeQuerySet(
      args.seed, {{Family::kPf, 5}, {Family::kCorePositive, 4}, {Family::kCoreNegated, 4},
                  {Family::kPositional, 2}, {Family::kHybrid, 3}});
  std::vector<std::string> texts;
  for (const auto& q : queries) texts.push_back(q.text);
  const auto plans = CompileAll(texts, &out);
  if (!out.errors.empty()) return out;
  const int num_q = static_cast<int>(texts.size());
  std::vector<std::string> keys;
  for (int g = 0; g < z.groups; ++g) {
    for (int d = 0; d < z.docs_per_group; ++d) keys.push_back(DocKey(g, d));
  }
  auto doc_xml = [&](int i) {
    Rng rng(args.seed * 104729ULL + static_cast<uint64_t>(i));
    return MakeDocumentXml(&rng, z.nodes);
  };

  // Standing queries: the same number of exact-key subscriptions on every
  // document and of prefix subscriptions on every group, so no seed puts
  // more screening and re-evaluation behind its hot documents than another.
  std::vector<Standing> standing;
  {
    Rng rng(args.seed ^ 0x5b5ULL);
    for (int i = 0; i < z.exact_subs; ++i) {
      standing.push_back({keys[static_cast<size_t>(i % num_docs)],
                          static_cast<int>(rng.UniformInt(0, num_q - 1))});
    }
    for (int i = 0; i < z.prefix_subs; ++i) {
      standing.push_back({GroupSelector(i % z.groups),
                          static_cast<int>(rng.UniformInt(0, num_q - 1))});
    }
  }
  // Writes and reads are zipfian over documents, through two independent
  // seeded permutations, so the most-read documents are not the
  // most-written ones and most reads hit the answer cache. A read's text is
  // uniform, so every seed reads the same mix of families.
  std::vector<int> write_rank(static_cast<size_t>(num_docs));
  std::vector<int> read_rank(static_cast<size_t>(num_docs));
  {
    Rng rng(args.seed ^ 0x9e7ULL);
    for (size_t i = 0; i < write_rank.size(); ++i) write_rank[i] = read_rank[i] = static_cast<int>(i);
    rng.Shuffle(&write_rank);
    rng.Shuffle(&read_rank);
  }
  const ZipfSampler write_zipf(num_docs, 0.8);
  const ZipfSampler read_zipf(num_docs, 1.2);

  ThreadPool pool(kPoolWidth);
  service::QueryService::Options options;
  options.pool = &pool;
  options.exec.pool = &pool;
  options.wal_dir = args.work_dir + "/wal";
  // The journal must live inside the checkout, which is on a real disk;
  // with fsync off it does the same encoding, group commit and writes as
  // with fsync on tmpfs, without the device's flush latency.
  options.wal.fsync = false;
  if (args.inject_fault) options.answer_tap = CorruptingTap();
  out.config["churn.docs"] = std::to_string(num_docs);
  out.config["churn.nodes_per_doc"] = std::to_string(z.nodes);
  out.config["churn.read_texts"] = std::to_string(num_q);
  out.config["churn.standing_queries"] =
      std::to_string(z.exact_subs) + " exact + " + std::to_string(z.prefix_subs) + " prefix";
  out.config["churn.reads_per_step"] = std::to_string(z.reads_per_step);
  out.config["churn.wal_dir"] = "<work-dir>/wal";
  out.config["churn.wal_group_commit_window_us"] =
      std::to_string(options.wal.group_commit_window_us);
  out.config["churn.wal_fsync"] = options.wal.fsync ? "on" : "off";
  out.config["churn.flush"] = "FlushSubscriptions after every write";

  // Build the journal untimed: register the corpus into a durable service
  // and shut it down cleanly.
  std::error_code ec;
  std::filesystem::remove_all(options.wal_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  {
    service::QueryService builder(options);
    if (!builder.wal_enabled()) {
      out.errors.push_back("WAL did not open: " + builder.wal_status().ToString());
      return out;
    }
    double ingest_bytes = 0, ingest_s = 0;
    for (int i = 0; i < num_docs; ++i) {
      const std::string xml = doc_xml(i);
      const int64_t t0 = NowNs();
      Status st = builder.RegisterXml(keys[static_cast<size_t>(i)], xml);
      ingest_s += MsSince(t0) / 1e3;
      ingest_bytes += static_cast<double>(xml.size());
      if (!st.ok()) out.errors.push_back("RegisterXml: " + st.ToString());
    }
    out.layer["xml.ingest_mb_per_s"] = ingest_bytes / 1048576.0 / ingest_s;
  }
  if (!out.errors.empty()) return out;
  double journal_mb = static_cast<double>(DirectoryBytes(options.wal_dir)) / 1048576.0;

  // ------------------------------------------------------------- set-up
  // Cold restart, repeated: recovery, subscription registration, warm-up
  // reads of every (document, text) pair. The median is setup_s.
  std::unique_ptr<Deliveries> deliveries;
  std::unique_ptr<service::QueryService> svc;
  // The set-ups and the measured phase each get their own speed factor.
  HostSpeed setup_speed, speed;
  std::vector<double> setup_s, setup_wall_s;
  const int setups = args.trace ? 1 : z.setups;
  for (int rep = 0; rep < setups; ++rep) {
    for (int k = 0; k < 10; ++k) setup_speed.Sample();
    svc.reset();
    deliveries = std::make_unique<Deliveries>();
    PhaseClock clock;
    clock.Start();
    const int64_t setup_span = tracer->Begin("setup", -1, -1);
    const int64_t recover_span = tracer->Begin("wal.recover", setup_span, -1);
    svc = std::make_unique<service::QueryService>(options);
    tracer->End(recover_span);
    if (!svc->wal_enabled() || svc->documents().size() != static_cast<size_t>(num_docs)) {
      out.errors.push_back("recovery lost documents: " + svc->wal_status().ToString());
      return out;
    }
    for (Standing& s : standing) {
      auto id = svc->Subscribe(s.selector, texts[static_cast<size_t>(s.text)],
                               deliveries->Callback());
      if (!id.ok()) {
        out.errors.push_back("Subscribe: " + id.status().ToString());
        return out;
      }
      s.id = id.value();
    }
    svc->FlushSubscriptions();
    for (const std::string& key : keys) {
      for (const std::string& text : texts) {
        if (!svc->Submit(key, text).ok()) out.errors.push_back("warm-up failed: " + text);
      }
    }
    tracer->End(setup_span);
    setup_s.push_back(clock.CpuSeconds());
    setup_wall_s.push_back(clock.Seconds());
    if (!out.errors.empty()) return out;
  }
  out.config["setup_s.each"] = JoinSeconds(setup_s);
  out.config["setup_wall_s.each"] = JoinSeconds(setup_wall_s);
  out.config["churn.journal_mb_at_setup"] = std::to_string(journal_mb);

  // ------------------------------------------------------ measured phases
  Rng sched(args.seed ^ 0xc4c4ULL);
  xml::RandomEditOptions edit_options;
  edit_options.subtree_options.tag_alphabet = kTagAlphabet;
  uint64_t digest = 1469598103934665603ULL;
  std::unique_ptr<service::QueryService> twin;  // traced run: non-durable
  eval::Engine engine;
  auto run_phase = [&](double seconds, bool traced, PhaseRecord* rec, bool deterministic) {
    PhaseClock clock;
    clock.Start();
    service::ServiceStats det_before;
    if (deterministic) det_before = svc->Stats();
    for (int64_t step = 0;
         clock.Seconds() < seconds || (deterministic && step < z.det_steps); ++step) {
      clock.Pause();
      speed.MaybeSample();
      const std::string& key =
          keys[static_cast<size_t>(write_rank[static_cast<size_t>(write_zipf.Sample(&sched))])];
      auto current = svc->documents().Get(key);
      const xml::SubtreeEdit edit = xml::RandomSubtreeEdit(&sched, current->doc(), edit_options);
      std::vector<int> read_pairs;
      for (int i = 0; i < z.reads_per_step; ++i) {
        const int doc = read_rank[static_cast<size_t>(read_zipf.Sample(&sched))];
        read_pairs.push_back(doc * num_q + static_cast<int>(sched.UniformInt(0, num_q - 1)));
      }
      if (deterministic && step < z.det_steps) {
        digest = Fnv1a(key + xml::SerializeSubtree(current->doc(), edit.target), digest);
        for (int p : read_pairs) digest = Fnv1a(std::to_string(p) + ",", digest);
      }
      const bool sampled = traced && step % z.sample_every == 0;
      if (sampled) {
        const int64_t span = tracer->Begin("xml.apply_edit", -1, step);
        auto applied = xml::ApplyEdit(current->doc(), edit);
        tracer->End(span);
      }
      if (traced) {
        const int64_t span = tracer->Begin("twin.update", -1, step);
        twin->UpdateDocument(key, edit);
        tracer->End(span);
        twin->FlushSubscriptions();
      }
      current.reset();
      clock.Resume();

      const int64_t op = traced ? tracer->Begin("op", -1, step) : -1;
      int64_t span = traced ? tracer->Begin("service.update", op, step) : -1;
      const int64_t t0 = NowNs();
      const int64_t c0 = CpuNs();
      Status st = svc->UpdateDocument(key, edit);
      tracer->End(span);
      span = traced ? tracer->Begin("subs.flush", op, step) : -1;
      svc->FlushSubscriptions();
      tracer->End(span);
      rec->updates.push_back({1, MsSince(t0), CpuMsSince(c0)});
      out.attempted += 1;
      if (!st.ok()) {
        out.failed += 1;
        if (out.errors.size() < 5) out.errors.push_back("UpdateDocument: " + st.ToString());
      }
      for (int p : read_pairs) {
        const std::string& doc = keys[static_cast<size_t>(p / num_q)];
        const std::string& text = texts[static_cast<size_t>(p % num_q)];
        span = traced ? tracer->Begin("service.submit", op, step) : -1;
        const int64_t r0 = NowNs();
        const int64_t rc0 = CpuNs();
        auto answer = svc->Submit(doc, text);
        const double cpu_ms = CpuMsSince(rc0);
        rec->reads.push_back({1, MsSince(r0), cpu_ms});
        tracer->End(span);
        out.attempted += 1;
        if (!answer.ok()) out.failed += 1;
      }
      tracer->End(op);
      clock.Pause();
      if (deterministic && step + 1 == z.det_steps) {
        AddDeterministicCounts(det_before, svc->Stats(), &out);
      }
      if (sampled) {
        // The last read again, now a warm hit, then its bare evaluation.
        const int p = read_pairs.back();
        const std::string& doc = keys[static_cast<size_t>(p / num_q)];
        const std::string& text = texts[static_cast<size_t>(p % num_q)];
        const int64_t probe = tracer->Begin("probe", -1, step);
        span = tracer->Begin("service.submit_hit", probe, step);
        svc->Submit(doc, text);
        tracer->End(span);
        span = tracer->Begin("plan.compile", probe, step);
        auto plan = eval::Engine::Compile(text);
        tracer->End(span);
        auto stored = svc->documents().Get(doc);
        span = tracer->Begin("engine.run_plan", probe, step);
        auto answer = engine.RunPlan(stored->doc(), plan.value());
        tracer->End(span);
        if (answer.ok()) tracer->SetLabel(span, RouteFamily(answer.value().evaluator));
        tracer->End(probe);
      }
      clock.Resume();
    }
    rec->seconds = clock.Seconds();
    rec->cpu_seconds = clock.CpuSeconds();
  };

  const service::ServiceStats before = svc->Stats();
  const int64_t wal_before = DirectoryBytes(options.wal_dir);
  PhaseRecord phase;
  run_phase(args.trace ? args.seconds / 2 : args.seconds, false, &phase, true);
  const auto updates = static_cast<int64_t>(phase.updates.size());
  AddStatsDeltas(before, svc->Stats(), static_cast<int64_t>(phase.reads.size()), updates,
                 &out);
  out.layer["wal.bytes_per_update"] =
      static_cast<double>(DirectoryBytes(options.wal_dir) - wal_before) /
      static_cast<double>(updates);
  AddPhaseMetrics(phase, speed, &out);
  out.end_to_end["setup_s"] = Median(setup_s) / setup_speed.Factor();
  out.schedule_digest = digest;
  if (args.trace) {
    // The non-durable twin: the live corpus and the same standing queries,
    // so each edit costs it the same splice and screening minus the WAL.
    service::QueryService::Options twin_options = options;
    twin_options.wal_dir.clear();
    twin_options.answer_tap = nullptr;
    twin = std::make_unique<service::QueryService>(twin_options);
    for (const std::string& key : keys) {
      twin->RegisterDocument(key, svc->documents().Get(key)->doc());
    }
    for (const Standing& s : standing) {
      twin->Subscribe(s.selector, texts[static_cast<size_t>(s.text)],
                      [](const mview::SubscriptionEvent&) {});
    }
    twin->FlushSubscriptions();
    PhaseRecord traced;
    run_phase(args.seconds / 2, true, &traced, false);
    AddTraceOverhead(phase, traced, &out);
    out.end_to_end.clear();
    twin.reset();
  }

  // ---------------------------------------------------------------- gates
  // 1. Every standing query: the initial answer with every delivered diff
  //    applied equals a fresh evaluation on the live document.
  svc->FlushSubscriptions();
  for (const Standing& s : standing) {
    const bool prefix = s.selector.back() == '*';
    const std::string stem = prefix ? s.selector.substr(0, s.selector.size() - 1) : s.selector;
    for (const std::string& key : keys) {
      if (prefix ? key.rfind(stem, 0) != 0 : key != s.selector) continue;
      auto stored = svc->documents().Get(key);
      auto answer = engine.RunPlan(stored->doc(), plans[static_cast<size_t>(s.text)]);
      if (!answer.ok() || answer.value().value.nodes() != deliveries->State(s.id, key)) {
        if (out.errors.size() < 5) {
          out.errors.push_back("standing query " + s.selector + " / " +
                               texts[static_cast<size_t>(s.text)] +
                               ": delivered diffs do not add up on " + key);
        }
      }
    }
  }
  // 2. Reads: every (document, text) pair against a fresh evaluation.
  ExpectedAnswers expected;
  for (int d = 0; d < num_docs; ++d) {
    auto stored = svc->documents().Get(keys[static_cast<size_t>(d)]);
    for (int q = 0; q < num_q; ++q) {
      auto got = svc->Submit(keys[static_cast<size_t>(d)], texts[static_cast<size_t>(q)]);
      const std::string& want =
          expected.Get(static_cast<int64_t>(d) * num_q + q, stored->doc(),
                       plans[static_cast<size_t>(q)]);
      if ((!got.ok() || testkit::AnswerDigest(got.value().value) != want) &&
          out.errors.size() < 5) {
        out.errors.push_back("wrong answer for " + keys[static_cast<size_t>(d)] + " / " +
                             texts[static_cast<size_t>(q)]);
      }
    }
  }
  // 3. The journal: reopening the directory yields the live corpus, byte
  //    for byte.
  std::vector<std::string> live;
  for (const std::string& key : keys) {
    live.push_back(xml::SerializeDocument(svc->documents().Get(key)->doc()));
  }
  svc.reset();
  service::QueryService::Options reopen_options = options;
  reopen_options.answer_tap = nullptr;
  service::QueryService reopened(reopen_options);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto stored = reopened.documents().Get(keys[i]);
    if (stored == nullptr || xml::SerializeDocument(stored->doc()) != live[i]) {
      out.errors.push_back("recovered " + keys[i] + " differs from the live corpus");
      break;
    }
  }
  return out;
}

}  // namespace gkx::perfbench
