// The soak driver: concurrent replay of a compiled Schedule against a live
// ShardedQueryService, with every answer checked against the
// single-threaded naive Oracle — at every serving topology.
//
// Topology. Three axes of SoakOptions, composing freely:
//   * shards >= 1 — the driver always drives the router; shards = 1 is the
//     single-service topology;
//   * wal_dir     — non-empty = durable shards under <wal_dir>/shard<i>;
//   * wire        — replay traffic goes through a loopback net::Server, one
//     net::Client per replay thread (kAddDocument as RegisterXml of the
//     serialized revision). Subscriptions, store inspections and recovery
//     probes stay in-process on the router the server fronts.
//
// Rounds. The operation list is cut into `rounds` contiguous slices; each
// is replayed by `threads` threads and joined before the next. Phases
// follow from the topology:
//
//   phase                       runs at   checks
//   differential replay         always    reads vs Oracle revision window;
//                                         mutations vs precomputed revision
//   standing-query replay       always    each diff stream re-applied
//                                         strictly (ApplyDiff)
//   stats reconciliation        always    CheckStats on router + each shard
//   lost-update check           always    final corpus == highest revision
//   kill/recover rounds         wal_dir   every round ends in a kill (clean
//                                         close and CrashWalForTest
//                                         alternate) and a reopen
//   isolation round             shards>=2 last round churns only shard 0
//   one-shard crash             both      siblings checkpoint, shard 0
//                                         crashes alone
//
// Determinism model: the schedule fixes the operations; the driver fixes
// which thread runs which one (churn by document, doc mod threads; every
// other operation by index, op mod threads); only the interleaving varies
// run to run. Every check is phrased against a window of legal states:
//
//   * A read of document d may observe any revision in [lo, hi]: lo is the
//     revision at the round's start or the last one the reading thread
//     itself installed (same-thread ordering holds through the store mutex
//     and, over the wire, through the thread's own connection); hi is the
//     last revision the round installs. Matching none is a torn or stale
//     snapshot, or a wrong answer.
//   * Churn for a document is pinned to one thread, so revisions install in
//     schedule order. Right after each mutation the churn thread re-reads
//     the stored document and compares it node for node (ExhaustiveEquals)
//     with the schedule's precomputed revision — the delta path, and over
//     the wire the serializer/parser round trip, differentially tested
//     against full replacement. After the last round every document must be
//     byte-identical to its highest revision (anything else is a lost
//     update).
//   * Standing queries (standing_queries > 0): the first K node-set pool
//     queries are subscribed against "doc*" (every document) at the start
//     of each router incarnation. At its end every (subscription, document)
//     stream is re-applied from the empty set: a diff that removes an
//     absent node or re-adds a present one is a duplicated or reordered
//     delivery; every state must be the oracle's answer at some revision
//     of the incarnation; the final state must be the answer at the
//     watermark. Events for unknown documents or subscription ids fail.
//   * Stats reconcile exactly on the router's aggregate and on each shard:
//     one plan-cache lookup per request, evaluator counts and latency
//     samples sum to successful requests, route histograms mirror segment
//     counters, exec buckets sum to staged segments, answer-cache lookups
//     sum to successful requests with every miss an insert or a decline.
//     Identities the router changes are restated, never dropped: shard s
//     counts the requests and sub-batches routed to it (so the aggregate
//     `batches` counts per-shard sub-batches), evictions summed over shards
//     equal those seen through PlanCache on_evict, and a "doc*"
//     subscription is active on every shard.
//
// Kill/recover (wal_dir): the thread that runs each round's halfway
// operation forces a checkpoint, racing the other writers. Before the kill
// and after the reopen every document must ExhaustiveEquals its watermark
// revision; a torn tail is a failure (writers were joined, so every record
// was acknowledged); one probe query per document must answer, and must
// match the Oracle where it holds the pair. One extra incarnation after the
// last round re-verifies the last kill.
//
// Isolation (shards >= 2): the last round's churn touches only documents
// ShardOf places on shard 0 (the other documents' churn is moved to the end
// of the round before, keeping per-document order). Across that round the
// sibling shards' answer-cache invalidations / retained / remapped and
// subscription evaluations must not move, siblings must serve warm hits
// wherever a replay thread repeats a read on them, and no subscription
// event may arrive for a sibling's document. With a WAL, the siblings
// checkpoint at the round's halfway point instead of the whole router,
// shard 0 alone crashes, and after the reopen exactly shard 0 replays
// journal records while the siblings load snapshots only.
//
// Every failure message embeds seed= (and round=/op= where they apply), so
// a divergence reproduces with a replay of the same (spec, seed).

#ifndef GKX_TESTKIT_SOAK_DRIVER_HPP_
#define GKX_TESTKIT_SOAK_DRIVER_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "service/query_service.hpp"
#include "testkit/oracle.hpp"
#include "testkit/workload.hpp"

namespace gkx::testkit {

struct SoakOptions {
  /// Router shards (>= 1). At >= 2 the last round is the isolation round,
  /// and there are at least two rounds.
  int shards = 1;
  /// Non-empty = durable shards plus kill/recover rounds. The directory
  /// must be fresh (the caller wipes it).
  std::string wal_dir;
  /// Replay traffic through a loopback net::Server.
  bool wire = false;
  /// Replay threads (plain std::threads; the router's pool still backs
  /// SubmitBatch underneath, so both layers get traffic).
  int threads = 4;
  /// Standing "doc*" subscriptions: the first `standing_queries` node-set
  /// queries of the pool (fewer if it runs short). 0 = none.
  int standing_queries = 0;
  /// Barrier-separated slices of the schedule; with a WAL, kill/reopen
  /// rounds.
  int rounds = 1;
  /// Per-shard service template (answer_tap and plan-cache hooks set here
  /// are kept; the driver composes its own observation on top).
  service::QueryService::Options service;
};

struct SoakReport {
  uint64_t seed = 0;
  int threads = 0;
  int shards = 0;
  int rounds = 0;
  bool durable = false;
  bool wire = false;
  int64_t operations = 0;          // schedule entries replayed
  int64_t requests = 0;            // replayed submits, batched ones included
  int64_t mutations = 0;           // churn operations acknowledged
  int64_t patches = 0;             // of which subtree edits
  int64_t oracle_evaluations = 0;  // naive-oracle work done up front
  int64_t subscriptions = 0;       // standing queries per incarnation
  int64_t subscription_events = 0; // diffs delivered, all incarnations
  // Kill/recover rounds (wal_dir).
  int64_t checkpoints = 0;         // forced halfway checkpoints
  int64_t crashes = 0;             // CrashWalForTest kills (one-shard too)
  int64_t clean_closes = 0;        // destructor-only kills
  int64_t recoveries = 0;          // reopens of the directory
  int64_t snapshots_loaded = 0;    // summed over recoveries and shards
  int64_t records_replayed = 0;
  int64_t records_skipped = 0;
  // Shard phases (shards >= 2).
  bool isolation_ran = false;
  bool shard_crash_ran = false;
  int64_t records_replayed_shard0 = 0;  // after the one-shard crash
  // Failures; ok() iff all are zero.
  int64_t divergences = 0;          // answers matching no legal revision
  int64_t errors = 0;               // non-OK responses, mutations, opens
  int64_t lost_updates = 0;         // final doc != highest revision
  int64_t patch_divergences = 0;    // stored doc != precomputed revision
  int64_t recovery_divergences = 0; // corpus != watermark at a kill/reopen
  int64_t isolation_violations = 0; // churn seen by a sibling shard
  int64_t stats_violations = 0;     // counter reconciliation failures
  int64_t subscription_violations = 0;  // diff streams violating the oracle
  /// The first few failure messages (the counts above are exact).
  std::vector<std::string> failures;
  /// Router aggregate at the end of the last replay round, and its
  /// ExportStats(kJson) with the shards[] breakdown — what bench_soak
  /// --stats-json= dumps and tools/check_stats_json validates.
  service::ServiceStats stats;
  std::string stats_json;

  bool ok() const {
    return divergences == 0 && errors == 0 && lost_updates == 0 &&
           patch_divergences == 0 && recovery_divergences == 0 &&
           isolation_violations == 0 && stats_violations == 0 &&
           subscription_violations == 0;
  }
  /// One-paragraph human-readable rollup (used by bench_soak and gtest).
  std::string Summary() const;
};

/// Replays the schedule at the topology `options` names and returns the
/// full report. The driver itself adds no randomness.
SoakReport RunSoak(const Schedule& schedule, const SoakOptions& options = {});

}  // namespace gkx::testkit

#endif  // GKX_TESTKIT_SOAK_DRIVER_HPP_
