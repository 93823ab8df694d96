// WAL benchmark — the cost of durability (ROADMAP item 2).
//
// Phase A, durable update throughput: the EXP-DELTA subtree-update workload
// (one writer per document, kSetText patches) with and without the WAL, at
// 1 and at N threads. Group commit is the claim under test: one fdatasync
// covers every update that arrives within the commit window, so the
// durable N-thread rate must stay within 2x of the in-memory rate
// (self-check: the median of kPairs in-memory/durable pairs at N threads,
// measured in alternating order in this run, is >= 0.5x; the run fails
// otherwise). Pairing keeps drift across the run (frequency, a neighbour's
// load, the page cache) on both sides of each ratio.
//
// Phase B, recovery scaling: journals with suffixes of M updates (no
// checkpoint in between) are reopened cold; replay time must scale
// linearly in M (self-check: total time ratio across a 16x suffix ratio
// stays far below the 256x a quadratic replay would show).
//
// Phase C, recovery soak smoke: one short durable testkit::RunSoak
// (kill/checkpoint/reopen rounds, ExhaustiveEquals corpus oracle, every
// read checked against the naive oracle) must pass.
//
//   ./bench_wal                  # full run, writes BENCH_wal.json
//   ./bench_wal --smoke          # CI-sized
//
// Flags: --threads= writer threads for phase A (default 4), --updates=
// updates per thread (default 300), --nodes= document size in nodes
// (default 60000 — sized so the O(|D|) splice is the unit of work, as in
// EXP-DELTA), --smoke halves everything.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/stopwatch.hpp"
#include "bench/bench_util.hpp"
#include "service/document_store.hpp"
#include "testkit/soak_driver.hpp"
#include "testkit/workload.hpp"
#include "wal/wal.hpp"
#include "xml/generator.hpp"

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

bool FlagSet(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// In-memory/durable pairs behind the N-thread throughput bar.
constexpr int kPairs = 5;

std::string FreshDir(const char* name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "gkx_bench_wal" / name)
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// One writer per document applying kSetText patches — the EXP-DELTA update
/// shape. Returns updates/second. `wal_dir` empty = in-memory baseline.
double UpdateThroughput(int threads, int updates_per_thread, int nodes,
                        const std::string& wal_dir) {
  gkx::service::DocumentStore store;
  std::unique_ptr<gkx::wal::Wal> wal;
  if (!wal_dir.empty()) {
    gkx::wal::WalOptions options;
    options.dir = wal_dir;
    gkx::wal::RecoveryReport report;
    auto opened = gkx::wal::Wal::OpenAndRecover(options, &store, &report);
    GKX_CHECK(opened.ok());
    wal = std::move(opened).value();
    store.AttachWal(wal.get());
  }
  for (int t = 0; t < threads; ++t) {
    GKX_CHECK(store
                  .Put("doc" + std::to_string(t),
                       gkx::xml::ChainDocument(nodes))
                  .ok());
  }
  gkx::Stopwatch wall;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&store, t, updates_per_thread, nodes] {
      const std::string key = "doc" + std::to_string(t);
      gkx::xml::SubtreeEdit edit;
      edit.kind = gkx::xml::SubtreeEdit::Kind::kSetText;
      for (int i = 0; i < updates_per_thread; ++i) {
        edit.target = 1 + (i * 37) % (nodes - 1);
        edit.text = "t" + std::to_string(i);
        GKX_CHECK(store.Update(key, edit).ok());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double seconds = wall.ElapsedSeconds();
  if (wal != nullptr) store.AttachWal(nullptr);
  wal.reset();
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  return static_cast<double>(threads) * updates_per_thread / seconds;
}

/// Builds a journal whose suffix is `suffix` update records (fsync off —
/// the bytes are identical, building is just faster), then measures a cold
/// OpenAndRecover. Returns seconds; checks the replay really covered the
/// suffix.
double RecoveryTime(int suffix, int nodes, int64_t* replayed) {
  const std::string dir = FreshDir("recovery");
  {
    gkx::service::DocumentStore store;
    gkx::wal::WalOptions options;
    options.dir = dir;
    options.fsync = false;
    options.group_commit_window_us = 0;
    gkx::wal::RecoveryReport report;
    auto wal = gkx::wal::Wal::OpenAndRecover(options, &store, &report);
    GKX_CHECK(wal.ok());
    store.AttachWal(wal->get());
    GKX_CHECK(store.Put("doc", gkx::xml::ChainDocument(nodes)).ok());
    gkx::xml::SubtreeEdit edit;
    edit.kind = gkx::xml::SubtreeEdit::Kind::kSetText;
    for (int i = 0; i < suffix; ++i) {
      edit.target = 1 + (i * 37) % (nodes - 1);
      edit.text = "t" + std::to_string(i);
      GKX_CHECK(store.Update("doc", edit).ok());
    }
    store.AttachWal(nullptr);
  }
  gkx::service::DocumentStore recovered;
  gkx::wal::WalOptions options;
  options.dir = dir;
  gkx::wal::RecoveryReport report;
  gkx::Stopwatch wall;
  auto wal = gkx::wal::Wal::OpenAndRecover(options, &recovered, &report);
  const double seconds = wall.ElapsedSeconds();
  GKX_CHECK(wal.ok());
  // The put + every update sit in the suffix (no checkpoint since).
  GKX_CHECK(report.records_replayed == suffix + 1);
  *replayed = report.records_replayed;
  wal->reset();
  std::filesystem::remove_all(dir);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = FlagSet(argc, argv, "smoke");
  const int threads =
      static_cast<int>(FlagValue(argc, argv, "threads", 4));
  const int updates = static_cast<int>(
      FlagValue(argc, argv, "updates", smoke ? 120 : 300));
  const int nodes =
      static_cast<int>(FlagValue(argc, argv, "nodes", smoke ? 30000 : 60000));

  gkx::bench::PrintHeader(
      "wal — durable delta write-ahead log (ROADMAP item 2)",
      "group commit amortizes fsync across concurrent writers; replay "
      "is linear in the journal suffix",
      "subtree-update throughput with/without the WAL, cold recovery "
      "time vs suffix length, kill/reopen soak");

  gkx::bench::JsonReport json("wal", 1);
  bool failed = false;

  // ------------------------------------------------------------- phase A
  gkx::bench::Table throughput(
      {"mode", "threads", "updates", "updates/s", "vs in-mem", "verdict"});
  const double inmem_1 = UpdateThroughput(1, updates, nodes, "");
  const double durable_1 =
      UpdateThroughput(1, updates, nodes, FreshDir("durable1"));
  // The acceptance bar: at N threads the commit window batches concurrent
  // updates into shared fsyncs, keeping durability within 2x. One pair is
  // one noisy sample, so the bar holds on the median of kPairs pair ratios,
  // the order inside each pair alternating.
  std::vector<double> inmem_runs, durable_runs, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double inmem = 0, durable = 0;
    if (pair % 2 == 0) {
      inmem = UpdateThroughput(threads, updates, nodes, "");
      durable =
          UpdateThroughput(threads, updates, nodes, FreshDir("durableN"));
    } else {
      durable =
          UpdateThroughput(threads, updates, nodes, FreshDir("durableN"));
      inmem = UpdateThroughput(threads, updates, nodes, "");
    }
    inmem_runs.push_back(inmem);
    durable_runs.push_back(durable);
    ratios.push_back(durable / inmem);
  }
  const double inmem_n = gkx::bench::Median(inmem_runs);
  const double durable_n = gkx::bench::Median(durable_runs);
  const double ratio_n = gkx::bench::Median(ratios);
  const bool throughput_ok = ratio_n >= 0.5;
  failed |= !throughput_ok;
  throughput.AddRow({"in-memory", gkx::bench::Num(1), gkx::bench::Num(updates),
                     gkx::bench::Num(static_cast<int64_t>(inmem_1)), "1.00",
                     ""});
  throughput.AddRow({"durable", gkx::bench::Num(1), gkx::bench::Num(updates),
                     gkx::bench::Num(static_cast<int64_t>(durable_1)),
                     gkx::bench::Ratio(durable_1 / inmem_1), ""});
  throughput.AddRow({"in-memory", gkx::bench::Num(threads),
                     gkx::bench::Num(updates),
                     gkx::bench::Num(static_cast<int64_t>(inmem_n)), "1.00",
                     ""});
  throughput.AddRow({"durable", gkx::bench::Num(threads),
                     gkx::bench::Num(updates),
                     gkx::bench::Num(static_cast<int64_t>(durable_n)),
                     gkx::bench::Ratio(ratio_n),
                     gkx::bench::PassFail(throughput_ok)});
  throughput.Print();
  json.AddRow({{"phase", gkx::bench::JsonStr("update_throughput")},
               {"nodes", gkx::bench::JsonNum(nodes)},
               {"threads", gkx::bench::JsonNum(threads)},
               {"inmem_1t_ups", gkx::bench::JsonNum(inmem_1)},
               {"durable_1t_ups", gkx::bench::JsonNum(durable_1)},
               {"inmem_nt_ups", gkx::bench::JsonNum(inmem_n)},
               {"durable_nt_ups", gkx::bench::JsonNum(durable_n)},
               {"durable_vs_inmem_nt", gkx::bench::JsonNum(ratio_n)},
               {"pairs", gkx::bench::JsonNum(kPairs)},
               {"self_check_min_ratio", gkx::bench::JsonNum(0.5)},
               {"ok", gkx::bench::JsonNum(throughput_ok ? 1.0 : 0.0)}});

  // ------------------------------------------------------------- phase B
  gkx::bench::Table recovery(
      {"suffix", "replayed", "recover_ms", "us/record", "verdict"});
  const int recovery_nodes = smoke ? 1000 : 2000;
  const std::vector<int> suffixes =
      smoke ? std::vector<int>{64, 256, 1024}
            : std::vector<int>{128, 512, 2048};
  std::vector<double> times;
  for (const int suffix : suffixes) {
    int64_t replayed = 0;
    const double seconds = RecoveryTime(suffix, recovery_nodes, &replayed);
    times.push_back(seconds);
    recovery.AddRow({gkx::bench::Num(suffix), gkx::bench::Num(replayed),
                     gkx::bench::Millis(seconds),
                     gkx::bench::Ratio(seconds * 1e6 / replayed, 1), ""});
    json.AddRow({{"phase", gkx::bench::JsonStr("recovery_scaling")},
                 {"suffix", gkx::bench::JsonNum(suffix)},
                 {"nodes", gkx::bench::JsonNum(recovery_nodes)},
                 {"recover_seconds", gkx::bench::JsonNum(seconds)},
                 {"us_per_record",
                  gkx::bench::JsonNum(seconds * 1e6 / replayed)}});
  }
  // Linearity: the largest suffix is 16x the smallest; a linear replay
  // lands near 16x the time, a quadratic one near 256x. The bar (64x)
  // leaves room for cold-cache noise at the small end while still failing
  // anything super-linear.
  const double scale_ratio = times.back() / times.front();
  const bool recovery_ok = scale_ratio <= 64.0;
  failed |= !recovery_ok;
  recovery.AddRow({"ratio", "", gkx::bench::Ratio(scale_ratio, 1), "<= 64x",
                   gkx::bench::PassFail(recovery_ok)});
  recovery.Print();
  json.AddRow({{"phase", gkx::bench::JsonStr("recovery_linearity")},
               {"time_ratio_16x_suffix", gkx::bench::JsonNum(scale_ratio)},
               {"self_check_max_ratio", gkx::bench::JsonNum(64.0)},
               {"ok", gkx::bench::JsonNum(recovery_ok ? 1.0 : 0.0)}});

  // ------------------------------------------------------------- phase C
  gkx::testkit::WorkloadSpec spec;
  spec.seed = 7;
  spec.operations = smoke ? 160 : 240;
  spec.documents = 4;
  spec.min_document_nodes = 24;
  spec.max_document_nodes = 64;
  spec.queries = 8;
  spec.churn_probability = 0.5;
  auto schedule = gkx::testkit::CompileWorkload(spec);
  GKX_CHECK(schedule.ok());
  gkx::testkit::SoakOptions soak;
  soak.rounds = smoke ? 3 : 4;
  soak.threads = 4;
  soak.wal_dir = FreshDir("soak");
  auto soak_report = gkx::testkit::RunSoak(*schedule, soak);
  std::printf("\n%s\n", soak_report.Summary().c_str());
  failed |= !soak_report.ok();
  json.AddRow({{"phase", gkx::bench::JsonStr("recovery_soak")},
               {"mutations", gkx::bench::JsonNum(
                                 static_cast<double>(soak_report.mutations))},
               {"recoveries", gkx::bench::JsonNum(static_cast<double>(
                                  soak_report.recoveries))},
               {"records_replayed",
                gkx::bench::JsonNum(
                    static_cast<double>(soak_report.records_replayed))},
               {"ok", gkx::bench::JsonNum(soak_report.ok() ? 1.0 : 0.0)}});
  std::filesystem::remove_all(soak.wal_dir);

  json.Write(gkx::bench::RepoRootPath("BENCH_wal.json"));
  std::printf("bench_wal: %s\n", failed ? "FAIL" : "ok");
  return failed ? 1 : 0;
}
