// EXP-SHARD — shared-nothing corpus sharding (src/service/sharded_service).
//
// EXP-SHARD-SCALE: the standing-query churn regime from EXP-MVIEW, scaled.
// Every churn event pays an O(S) subscription-manager scan (selector +
// footprint screening over ALL standing queries under that manager's lock)
// before the mview layer can decide nothing needs re-evaluation. With S
// standing queries over one service that scan is the per-update floor;
// behind the router each shard holds only the subscriptions whose documents
// it owns, so the same churn event scans S/N entries on exactly one shard.
// The measured workload interleaves hot-document churn bursts (a run of
// cheap text edits against one document — ids stable, footprint disjoint
// from every standing query, so the scan is pure screening cost) with warm
// scatter-gather read batches, and reports batch QPS at N ∈ {1, 2, 4} on
// the SAME machine (this box has one core, so the bars measure per-shard
// work reduction, not parallelism — the honest pure-read row below shows
// ~1x, as it must on one core). Two effects stack: each screening scan
// walks S/N entries instead of S, and the S/N-entry scan block is small
// enough to stay cache-resident across a burst while the unsharded S-entry
// block is not — the classic partitioning dividend (per-shard working set
// fits in cache), and why the 4-shard bar lands above 4x here. Self-checked
// bars:
//   * batch QPS >= 1.7x at 2 shards and >= 3.0x at 4 shards vs N=1;
//   * every answer digest byte-identical across shard counts.
//
// EXP-SHARD-WIRE: the same router behind the gkx::net TCP front-end on
// loopback. One blocking client, batch sizes 1/64/256; the codec
// round-trips answers exactly (raw IEEE-754 bits, id lists), so wire
// digests must equal in-process digests byte-for-byte. Self-checked bar:
// wire QPS >= 0.5x in-process at batch >= 64 (framing + 2 syscalls
// amortize; batch=1 is reported unbarred — it prices a full round trip),
// on the median of kWirePairs in-process/wire pairs measured in
// alternating order in the same run.
//
// --smoke shrinks the corpus and iteration counts for CI and gates only
// byte-identity and the wire floor (timing bars need the full run).
// Also writes BENCH_shard_stats.json — the 2-shard router's ExportStats
// document — which tools/check_stats_json re-validates (aggregate ==
// sum of shards[]).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/stopwatch.hpp"
#include "bench/bench_util.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/shard_map.hpp"
#include "service/sharded_service.hpp"
#include "testkit/oracle.hpp"
#include "xml/edit.hpp"

namespace gkx {
namespace {

double FlagValue(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool FlagSet(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

struct ShardSpec {
  int documents = 192;
  int standing_queries = 8192;
  int iterations = 120;
  int edits_per_iteration = 4;
  int batch_size = 64;
  int warmup_iterations = 8;
};

std::string DocKey(int k) { return "doc" + std::to_string(k); }

// Per-document-unique tag family: footprints, cache keys, and standing
// queries are pairwise disjoint across the corpus.
std::string DocXml(int k) {
  const std::string t = std::to_string(k);
  std::string xml = "<d" + t + ">";
  for (int s = 0; s < 4; ++s) {
    xml += "<b" + t + ">";
    for (int l = 0; l < 3; ++l) {
      xml += "<a" + t + ">v</a" + t + ">";
    }
    xml += "</b" + t + ">";
  }
  xml += "<c" + t + ">tail</c" + t + "></d" + t + ">";
  return xml;
}

std::string DocQuery(int k, int q) {
  const std::string t = std::to_string(k);
  return q == 0 ? "//a" + t : "count(//a" + t + ")";
}

std::vector<service::ShardedQueryService::Request> MakeBatch(
    const ShardSpec& spec, int iteration) {
  std::vector<service::ShardedQueryService::Request> batch;
  batch.reserve(static_cast<size_t>(spec.batch_size));
  for (int i = 0; i < spec.batch_size; ++i) {
    const int pick = iteration * spec.batch_size + i;
    batch.push_back({DocKey(pick % spec.documents), DocQuery(pick % spec.documents, pick % 2)});
  }
  return batch;
}

std::unique_ptr<service::ShardedQueryService> BuildRouter(
    const ShardSpec& spec, int shards, bool answer_cache = true) {
  service::ShardedQueryService::Options options;
  options.shards = shards;
  options.shard.answer_cache_enabled = answer_cache;
  auto router = std::make_unique<service::ShardedQueryService>(options);
  for (int k = 0; k < spec.documents; ++k) {
    GKX_CHECK(router->RegisterXml(DocKey(k), DocXml(k)).ok());
  }
  // S standing queries, round-robin over the corpus, all exact-key node-set
  // watchers. The callbacks never fire during the measured region (text
  // churn is footprint-disjoint), but every churn event must still screen
  // all of them — that screening is the workload.
  //
  // Registration is grouped by owning shard: this whole bench runs N shards
  // inside ONE process on ONE heap, and round-robin registration would
  // interleave the shards' Subscription nodes at stride N — a scan of S/N
  // entries would then touch the same cache lines as a scan of S, and the
  // measurement would be about allocator interleaving, not per-shard work.
  // A real shared-nothing deployment is a process (and heap) per shard, so
  // grouped allocation is the faithful model, not a flattering one.
  const service::ShardMap placement(shards);
  for (int shard = 0; shard < shards; ++shard) {
    for (int s = 0; s < spec.standing_queries; ++s) {
      const int k = s % spec.documents;
      if (placement.ShardOf(DocKey(k)) != shard) continue;
      auto sub = router->Subscribe(DocKey(k), DocQuery(k, 0),
                                   [](const mview::SubscriptionEvent&) {});
      GKX_CHECK(sub.ok());
    }
  }
  router->FlushSubscriptions();
  return router;
}

struct ScaleResult {
  double qps = 0;           // batch answers per second, measured region
  double elapsed = 0;
  int64_t answers = 0;
  int64_t scans_screened = 0;  // skipped_disjoint delta over the region
  std::vector<std::string> digests;
};

xml::SubtreeEdit TextEdit(int serial) {
  xml::SubtreeEdit edit;
  edit.kind = xml::SubtreeEdit::Kind::kSetText;
  edit.target = 2;  // first a<k> leaf (same shape in every document)
  edit.text = "r" + std::to_string(serial);
  return edit;
}

ScaleResult RunScale(service::ShardedQueryService* router,
                     const ShardSpec& spec, bool churn) {
  ScaleResult result;

  int serial = 0;
  double edit_seconds = 0;
  auto iterate = [&](int iteration, bool measured) {
    if (churn) {
      Stopwatch edit_timer;
      // A burst of edits against one document per iteration (the document
      // rotates, so every shard takes its share of the churn). Each edit
      // pays the owning shard's full screening scan; the burst is what
      // lets a cache-resident S/N scan block show its locality win.
      for (int e = 0; e < spec.edits_per_iteration; ++e) {
        const int target = iteration % spec.documents;
        GKX_CHECK(
            router->UpdateDocument(DocKey(target), TextEdit(serial++)).ok());
      }
      if (measured) edit_seconds += edit_timer.ElapsedSeconds();
    }
    auto answers = router->SubmitBatch(MakeBatch(spec, iteration));
    for (auto& answer : answers) {
      GKX_CHECK(answer.ok());
      if (measured) {
        result.digests.push_back(testkit::AnswerDigest(answer->value));
        ++result.answers;
      }
    }
  };

  for (int i = 0; i < spec.warmup_iterations; ++i) iterate(i, false);
  const int64_t screened_before = router->Stats().subscriptions.skipped_disjoint;
  Stopwatch timer;
  for (int i = 0; i < spec.iterations; ++i) iterate(i, true);
  result.elapsed = timer.ElapsedSeconds();
  result.scans_screened =
      router->Stats().subscriptions.skipped_disjoint - screened_before;
  result.qps = static_cast<double>(result.answers) / result.elapsed;
  if (churn && std::getenv("GKX_BENCH_SHARD_PROBE") != nullptr) {
    const double edits =
        static_cast<double>(spec.iterations) * spec.edits_per_iteration;
    std::printf("  [probe] edits %.0fns/edit, reads %.0fus/batch\n",
                edit_seconds / edits * 1e9,
                (result.elapsed - edit_seconds) / spec.iterations * 1e6);
  }
  return result;
}

/// In-process/wire pairs behind each wire row's ratio.
constexpr int kWirePairs = 5;

struct WireResult {
  double inproc_qps = 0;
  double wire_qps = 0;
  double ratio = 0;
  bool digests_match = false;
};

WireResult RunWire(service::ShardedQueryService* router, const ShardSpec& spec,
                   int batch_size, int repetitions) {
  WireResult result;
  std::vector<service::ShardedQueryService::Request> local;
  std::vector<net::WireRequest> wire;
  for (int i = 0; i < batch_size; ++i) {
    const int k = i % spec.documents;
    local.push_back({DocKey(k), DocQuery(k, i % 2)});
    wire.push_back({DocKey(k), DocQuery(k, i % 2)});
  }
  // Warm both paths, keeping the digests for the identity check.
  std::vector<std::string> local_digests, wire_digests;
  for (auto& answer : router->SubmitBatch(local)) {
    GKX_CHECK(answer.ok());
    local_digests.push_back(testkit::AnswerDigest(answer->value));
  }

  net::Server server(router, {});
  GKX_CHECK(server.Start().ok());
  net::Client client;
  GKX_CHECK(client.Connect("127.0.0.1", server.port()).ok());
  for (auto& answer : client.SubmitBatch(wire)) {
    GKX_CHECK(answer.ok());
    wire_digests.push_back(testkit::AnswerDigest(answer->value));
  }
  result.digests_match = local_digests == wire_digests;

  // QPS of `repetitions` batches, in-process or over the wire.
  auto timed_qps = [&](bool over_wire) {
    Stopwatch timer;
    int64_t answers = 0;
    for (int r = 0; r < repetitions; ++r) {
      answers += static_cast<int64_t>(
          over_wire ? client.SubmitBatch(wire).size()
                    : router->SubmitBatch(local).size());
    }
    return static_cast<double>(answers) / timer.ElapsedSeconds();
  };
  // One pair is one noisy sample: the bar holds on the median of
  // kWirePairs pair ratios, the order inside each pair alternating.
  std::vector<double> inproc, over_wire, ratios;
  for (int pair = 0; pair < kWirePairs; ++pair) {
    const bool wire_first = pair % 2 == 1;
    const double first = timed_qps(wire_first);
    const double second = timed_qps(!wire_first);
    inproc.push_back(wire_first ? second : first);
    over_wire.push_back(wire_first ? first : second);
    ratios.push_back(over_wire.back() / inproc.back());
  }
  result.inproc_qps = bench::Median(inproc);
  result.wire_qps = bench::Median(over_wire);
  result.ratio = bench::Median(ratios);

  client.Close();
  server.Stop();
  return result;
}

}  // namespace
}  // namespace gkx

int main(int argc, char** argv) {
  const bool smoke = gkx::FlagSet(argc, argv, "smoke");
  gkx::ShardSpec spec;
  if (smoke) {
    spec.documents = 48;
    spec.standing_queries = 1024;
    spec.iterations = 12;
    spec.warmup_iterations = 2;
  }
  spec.documents = static_cast<int>(
      gkx::FlagValue(argc, argv, "docs", spec.documents));
  spec.standing_queries = static_cast<int>(
      gkx::FlagValue(argc, argv, "subs", spec.standing_queries));
  spec.iterations = static_cast<int>(
      gkx::FlagValue(argc, argv, "iters", spec.iterations));

  gkx::bench::PrintHeader(
      "EXP-SHARD — shared-nothing sharding: scatter-gather scaling + wire",
      "the serving layer above GKP03: per-update standing-query screening "
      "is O(S) under one manager; sharding makes it O(S/N) on one shard",
      "batch QPS at 1/2/4 shards under churn + standing queries (bars: "
      ">=1.7x @2, >=3.0x @4, byte-identical answers), and loopback wire "
      "QPS vs in-process (bar: >=0.5x at batch >= 64)");

  bool failed = false;
  gkx::bench::JsonReport json("shard", 0);

  // --probe-shards=N runs ONE shard count in this process and exits —
  // pair with GKX_BENCH_SHARD_PROBE=1 (prints per-edit / per-batch split)
  // to study a single configuration without cross-run heap effects.
  if (const double probe = gkx::FlagValue(argc, argv, "probe-shards", 0);
      probe > 0) {
    auto router = gkx::BuildRouter(spec, static_cast<int>(probe));
    gkx::ScaleResult run = gkx::RunScale(router.get(), spec, true);
    std::printf("probe shards=%d qps=%.0f\n", static_cast<int>(probe),
                run.qps);
    return 0;
  }

  // ------------------------------------------------------------- scale
  std::printf("EXP-SHARD-SCALE: docs=%d standing=%d iters=%d batch=%d "
              "edits/iter=%d\n\n",
              spec.documents, spec.standing_queries, spec.iterations,
              spec.batch_size, spec.edits_per_iteration);
  gkx::bench::Table scale_table(
      {"shards", "churn", "qps", "speedup", "screened", "answers", "verdict"});
  std::map<int, gkx::ScaleResult> churn_runs;
  double baseline_qps = 0;
  // All three routers are built BEFORE any is measured: building each on
  // the heap holes left by tearing down the previous one re-interleaves
  // its subscriptions through freed chunks, which re-creates exactly the
  // cross-shard cache-line sharing the grouped registration avoids (it
  // showed up as N=2 reproducibly landing ~25% under the c + s/N model
  // while N=1 and N=4 fit it).
  std::map<int, std::unique_ptr<gkx::service::ShardedQueryService>> routers;
  for (int shards : {1, 2, 4}) routers[shards] = gkx::BuildRouter(spec, shards);
  for (int shards : {1, 2, 4}) {
    gkx::ScaleResult run =
        gkx::RunScale(routers[shards].get(), spec, /*churn=*/true);
    if (shards == 1) baseline_qps = run.qps;
    const double speedup = run.qps / baseline_qps;
    const double bar = shards == 1 ? 0.0 : shards == 2 ? 1.7 : 3.0;
    const bool identical =
        shards == 1 || run.digests == churn_runs[1].digests;
    const bool pass = identical && (smoke || bar == 0.0 || speedup >= bar);
    if (!pass) failed = true;
    scale_table.AddRow(
        {gkx::bench::Num(shards), "yes",
         gkx::bench::Num(static_cast<int64_t>(run.qps)),
         gkx::bench::Ratio(speedup),
         gkx::bench::Num(run.scans_screened),
         gkx::bench::Num(run.answers),
         bar == 0.0 ? (identical ? "baseline" : "MISMATCH")
                    : (identical ? (pass ? "ok" : "BELOW-BAR")
                                 : "DIGEST-MISMATCH")});
    json.AddRow(
        {{"experiment", gkx::bench::JsonStr("scale")},
         {"shards", gkx::bench::JsonNum(shards)},
         {"churn", gkx::bench::JsonNum(1)},
         {"qps", gkx::bench::JsonNum(run.qps)},
         {"speedup", gkx::bench::JsonNum(speedup)},
         {"bar", gkx::bench::JsonNum(bar)},
         {"digests_identical", gkx::bench::JsonNum(identical ? 1 : 0)},
         {"screened", gkx::bench::JsonNum(static_cast<double>(run.scans_screened))},
         {"smoke", gkx::bench::JsonNum(smoke ? 1 : 0)},
         {"ok", gkx::bench::JsonNum(pass ? 1 : 0)}});
    churn_runs[shards] = std::move(run);
  }
  routers.clear();
  // The honest row: pure warm reads, no churn — on one core the router adds
  // scatter overhead and removes nothing, so this sits near (or below) 1x.
  // Unbarred; committed so the scaling table can't be read as a parallelism
  // claim.
  {
    gkx::ShardSpec read_spec = spec;
    read_spec.standing_queries = std::min(spec.standing_queries, 512);
    double read_baseline = 0;
    for (int shards : {1, 4}) {
      auto router = gkx::BuildRouter(read_spec, shards);
      gkx::ScaleResult run =
          gkx::RunScale(router.get(), read_spec, /*churn=*/false);
      if (shards == 1) read_baseline = run.qps;
      scale_table.AddRow({gkx::bench::Num(shards), "no",
                          gkx::bench::Num(static_cast<int64_t>(run.qps)),
                          gkx::bench::Ratio(run.qps / read_baseline), "-",
                          gkx::bench::Num(run.answers), "unbarred"});
      json.AddRow({{"experiment", gkx::bench::JsonStr("scale")},
                   {"shards", gkx::bench::JsonNum(shards)},
                   {"churn", gkx::bench::JsonNum(0)},
                   {"qps", gkx::bench::JsonNum(run.qps)},
                   {"speedup", gkx::bench::JsonNum(run.qps / read_baseline)},
                   {"bar", gkx::bench::JsonNum(0)},
                   {"ok", gkx::bench::JsonNum(1)}});
    }
  }
  scale_table.Print();

  // -------------------------------------------------------------- wire
  const int wire_reps = smoke ? 10 : 60;
  std::printf("EXP-SHARD-WIRE: loopback TCP, 2 shards, %d reps per batch\n\n",
              wire_reps);
  gkx::bench::Table wire_table(
      {"batch", "mode", "inproc_qps", "wire_qps", "ratio", "verdict"});
  {
    gkx::ShardSpec wire_spec = spec;
    wire_spec.standing_queries = std::min(spec.standing_queries, 512);
    // The barred rows serve evaluated queries (answer cache off — the
    // Options comment's "measure raw evaluation throughput" mode): a wire
    // front-end exists to put remote clients in front of the evaluator, so
    // that is the serving cost it is priced against. The warm-cache row is
    // kept, unbarred, to show the other regime honestly: against ~1µs hash
    // hits nothing framed over TCP can stay within 2x.
    auto eval_router = gkx::BuildRouter(wire_spec, 2, /*answer_cache=*/false);
    auto cached_router = gkx::BuildRouter(wire_spec, 2, /*answer_cache=*/true);
    struct WireCase {
      const char* mode;
      gkx::service::ShardedQueryService* router;
      int batch;
      bool barred;
    };
    const WireCase cases[] = {{"eval", eval_router.get(), 1, false},
                              {"eval", eval_router.get(), 64, true},
                              {"eval", eval_router.get(), 256, true},
                              {"cached", cached_router.get(), 64, false}};
    for (const WireCase& c : cases) {
      gkx::WireResult run = gkx::RunWire(c.router, wire_spec, c.batch,
                                         c.batch == 1 ? wire_reps * 8
                                                      : wire_reps);
      const bool pass = run.digests_match && (!c.barred || run.ratio >= 0.5);
      if (!pass) failed = true;
      wire_table.AddRow(
          {gkx::bench::Num(c.batch), c.mode,
           gkx::bench::Num(static_cast<int64_t>(run.inproc_qps)),
           gkx::bench::Num(static_cast<int64_t>(run.wire_qps)),
           gkx::bench::Ratio(run.ratio),
           !run.digests_match ? "DIGEST-MISMATCH"
           : !c.barred        ? "unbarred"
           : pass             ? "ok"
                              : "BELOW-BAR"});
      json.AddRow({{"experiment", gkx::bench::JsonStr("wire")},
                   {"mode", gkx::bench::JsonStr(c.mode)},
                   {"batch", gkx::bench::JsonNum(c.batch)},
                   {"inproc_qps", gkx::bench::JsonNum(run.inproc_qps)},
                   {"wire_qps", gkx::bench::JsonNum(run.wire_qps)},
                   {"ratio", gkx::bench::JsonNum(run.ratio)},
                   {"pairs", gkx::bench::JsonNum(gkx::kWirePairs)},
                   {"bar", gkx::bench::JsonNum(c.barred ? 0.5 : 0)},
                   {"digests_identical",
                    gkx::bench::JsonNum(run.digests_match ? 1 : 0)},
                   {"ok", gkx::bench::JsonNum(pass ? 1 : 0)}});
    }
    wire_table.Print();
    auto router = std::move(cached_router);

    // Stats export for tools/check_stats_json: the 2-shard router's
    // aggregated document with the shards[] breakdown.
    const std::string stats =
        router->ExportStats(gkx::service::StatsFormat::kJson);
    const std::string path = gkx::bench::RepoRootPath("BENCH_shard_stats.json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    GKX_CHECK(f != nullptr);
    std::fputs(stats.c_str(), f);
    GKX_CHECK(std::fclose(f) == 0);
    std::printf("  wrote %s (2-shard stats export)\n", path.c_str());
  }

  json.Write(gkx::bench::RepoRootPath("BENCH_shard.json"));
  std::printf("EXP-SHARD %s\n", failed ? "FAIL" : "ok");
  return failed ? 1 : 0;
}
