// Soak runner: replays deterministic concurrent workloads (gkx::testkit)
// at one serving topology until a time budget is exhausted, rotating the
// seed each round. Exits non-zero on the first failing round and prints the
// reproducing seed — rerun with --seed=<that> --rounds=1 to replay the
// exact schedule (the thread interleaving is the only nondeterminism).
// Each round replays its schedule with testkit::RunSoak in two
// barrier-separated soak rounds, so every topology's phases run: a
// kill/recover between and after them with --wal-dir=, the isolation round
// (and, durable, the one-shard crash) at --shards=2 and up.
//
//   ./bench_soak --seconds=30 --threads=4        # CI short mode
//   ./bench_soak --seed=42 --rounds=1            # replay one seed
//   ./bench_soak --ops=50000 --seconds=600       # heavier local soak
//   ./bench_soak --shards=2 --wire --wal-dir=/tmp/soak   # every axis at once
//
// Flags: --seed= first seed (default 1), --rounds= max rounds (default
// unlimited), --seconds= time budget (default 30), --threads= (default 4),
// --ops= schedule length per round (default 10000), --churn= probability
// (default 0.004), --edits= fraction of churn carried out as subtree
// patches through the delta pipeline (default 0.5; 0 = whole-document
// replacement only), --subs= standing queries per round (default 4 — the
// subscription soak; 0 disables), --exec-threads= intra-query workers for
// staged execution (default 1 = sequential; >1 partitions sweeps and runs
// the per-origin cvt loop concurrently — the TSan parallel soak round sets
// this), --wal-dir=DIR run every round with the durable write-ahead log
// under DIR/round<N> (each round's directory is wiped first; default off =
// in-memory), --shards=N router shards (default 1 = the single-service
// topology), --wire replay traffic through a loopback net::Server with one
// client per thread, --stats-json=PATH dump the last round's router
// ExportStats(kJson) document with its shards[] breakdown (the CI schema
// check reads it).
//
// Emits BENCH_soak.json (per-round rows, repo root) for cross-PR tracking.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "base/stopwatch.hpp"
#include "bench/bench_util.hpp"
#include "testkit/soak_driver.hpp"
#include "testkit/workload.hpp"

namespace {

int64_t FlagValue(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

double FlagDouble(int argc, char** argv, const char* name, double fallback) {
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

std::string FlagString(int argc, char** argv, const char* name,
                       const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using gkx::testkit::CompileWorkload;
  using gkx::testkit::RunSoak;
  using gkx::testkit::SoakOptions;
  using gkx::testkit::SoakReport;
  using gkx::testkit::WorkloadSpec;

  const uint64_t first_seed =
      static_cast<uint64_t>(FlagValue(argc, argv, "seed", 1));
  const int64_t max_rounds = FlagValue(argc, argv, "rounds", 0);  // 0 = no cap
  const double seconds = FlagDouble(argc, argv, "seconds", 30.0);
  const int threads = static_cast<int>(FlagValue(argc, argv, "threads", 4));
  const int ops = static_cast<int>(FlagValue(argc, argv, "ops", 10000));
  const double churn = FlagDouble(argc, argv, "churn", 0.004);
  const double edits = FlagDouble(argc, argv, "edits", 0.5);
  const int subs = static_cast<int>(FlagValue(argc, argv, "subs", 4));
  const int exec_threads =
      static_cast<int>(FlagValue(argc, argv, "exec-threads", 1));
  const std::string stats_json_path =
      FlagString(argc, argv, "stats-json", "");
  const std::string wal_dir = FlagString(argc, argv, "wal-dir", "");
  const int shards = static_cast<int>(FlagValue(argc, argv, "shards", 1));
  const bool wire = FlagSet(argc, argv, "wire");

  gkx::bench::PrintHeader(
      "soak — deterministic concurrent differential workload",
      "every fragment-specialised engine computes the same XPath semantics",
      "router answers (any shard count, durable or not, in-process or "
      "over the wire) vs a single-threaded naive oracle under "
      "concurrent mixed traffic (zipfian popularity, batches, churn, "
      "standing-query subscriptions, materialized answer cache)");

  gkx::bench::Table table({"round", "seed", "ops", "requests", "plan_hr",
                           "ans_hr", "sub_diffs", "p99_ms", "verdict"});
  gkx::bench::JsonReport json("soak", first_seed);
  gkx::Stopwatch budget;
  int64_t round = 0;
  uint64_t seed = first_seed;
  bool failed = false;
  std::string last_stats_json;
  while (!failed) {
    if (max_rounds > 0 && round >= max_rounds) break;
    if (round > 0 && budget.ElapsedSeconds() >= seconds) break;

    WorkloadSpec spec;
    spec.seed = seed;
    spec.operations = ops;
    spec.churn_probability = churn;
    spec.edit_probability = edits;
    spec.query_options.max_condition_depth = 2;
    spec.query_options.tag_zipf_s = 0.7;
    spec.document_options.tag_zipf_s = 0.7;
    spec.min_document_nodes = 30;
    spec.max_document_nodes = 90;
    auto schedule = CompileWorkload(spec);
    GKX_CHECK(schedule.ok());

    SoakOptions options;
    options.shards = shards;
    options.wire = wire;
    options.rounds = 2;
    options.threads = threads;
    options.standing_queries = subs;
    options.service.plan_cache.capacity = 64;
    options.service.exec.workers = exec_threads;
    if (exec_threads > 1) {
      // The soak is a correctness harness, not a perf run: force the
      // cost-model thresholds down so the soak's small documents really
      // exercise the partitioned sweeps and the concurrent cvt memo
      // (otherwise everything stays sequential and the parallel paths go
      // untested — the exec stats dump would show parallel_segments == 0).
      options.service.exec.min_parallel_nodes = 1;
      options.service.exec.min_parallel_origins = 1;
    }
    if (!wal_dir.empty()) {
      // Durable soak: every mutation rides through the group-commit WAL,
      // and the soak kills and recovers the router between its rounds.
      options.wal_dir = wal_dir + "/round" + std::to_string(round);
      std::filesystem::remove_all(options.wal_dir);
    }
    SoakReport report = RunSoak(*schedule, options);
    last_stats_json = report.stats_json;

    table.AddRow({gkx::bench::Num(round), gkx::bench::Num(static_cast<int64_t>(seed)),
                  gkx::bench::Num(report.operations),
                  gkx::bench::Num(report.requests),
                  gkx::bench::Ratio(report.stats.plan_cache.HitRate()),
                  gkx::bench::Ratio(report.stats.answer_cache.HitRate()),
                  gkx::bench::Num(report.subscription_events),
                  gkx::bench::Ratio(report.stats.latency.p99_ms, 3),
                  gkx::bench::PassFail(report.ok())});
    json.AddRow(
        {{"round", gkx::bench::JsonNum(static_cast<double>(round))},
         {"seed", gkx::bench::JsonNum(static_cast<double>(seed))},
         {"operations", gkx::bench::JsonNum(static_cast<double>(report.operations))},
         {"requests", gkx::bench::JsonNum(static_cast<double>(report.requests))},
         {"plan_hit_rate", gkx::bench::JsonNum(report.stats.plan_cache.HitRate())},
         {"answer_hit_rate",
          gkx::bench::JsonNum(report.stats.answer_cache.HitRate())},
         {"answer_invalidations",
          gkx::bench::JsonNum(
              static_cast<double>(report.stats.answer_cache.invalidations))},
         {"answer_retained",
          gkx::bench::JsonNum(
              static_cast<double>(report.stats.answer_cache.retained))},
         {"subscription_events",
          gkx::bench::JsonNum(static_cast<double>(report.subscription_events))},
         {"subscription_coalesced",
          gkx::bench::JsonNum(
              static_cast<double>(report.stats.subscriptions.coalesced))},
         {"p99_ms", gkx::bench::JsonNum(report.stats.latency.p99_ms)},
         {"p999_ms", gkx::bench::JsonNum(report.stats.latency.p999_ms)},
         {"ok", gkx::bench::JsonNum(report.ok() ? 1.0 : 0.0)}});
    if (!report.ok()) {
      failed = true;
      std::printf("%s\n", report.Summary().c_str());
      std::printf(
          "\nREPRODUCE: %s --seed=%llu --rounds=1 --threads=%d --ops=%d "
          "--churn=%g --edits=%g --subs=%d --exec-threads=%d "
          "--shards=%d%s%s%s\n",
          argv[0], static_cast<unsigned long long>(seed), threads, ops, churn,
          edits, subs, exec_threads, shards, wire ? " --wire" : "",
          wal_dir.empty() ? "" : " --wal-dir=",
          wal_dir.empty() ? "" : wal_dir.c_str());
    }
    ++round;
    ++seed;
  }

  table.Print();
  json.Write(gkx::bench::RepoRootPath("BENCH_soak.json"));
  if (!stats_json_path.empty() && !last_stats_json.empty()) {
    std::FILE* f = std::fopen(stats_json_path.c_str(), "w");
    GKX_CHECK(f != nullptr);
    std::fputs(last_stats_json.c_str(), f);
    GKX_CHECK(std::fclose(f) == 0);
    std::printf("  wrote %s (stats export, last round)\n", stats_json_path.c_str());
  }
  std::printf("soaked %lld round(s) in %.1fs — %s\n",
              static_cast<long long>(round), budget.ElapsedSeconds(),
              failed ? "FAIL" : "ok");
  return failed ? 1 : 0;
}
