// CI schema check for QueryService::ExportStats(kJson) dumps (the
// "gkx-stats-v1" document bench_soak writes via --stats-json=). Parses the
// file back through obs::json, requires every top-level section the schema
// promises, and re-proves the reconciliation invariants offline: the
// segment executor's buckets and segment counter add up to the per-route
// segment counters, and, when tracing was active, the per-route histogram
// counts sum to those counters exactly.
//
//   ./check_stats_json BENCH_soak_stats.json
//
// Exits 0 on a valid document, 1 with a diagnostic otherwise.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "check_stats_json: %s\n", message.c_str());
  return 1;
}

/// Segment-executor dispatch accounting, offline, for one stats document
/// (the aggregate or one shards[] entry). Every segment a successful run
/// dispatched landed in exactly one bucket, so the three buckets sum to the
/// executor's segment counter — for sequential and parallel
/// (exec.workers > 1) services alike. And every evaluated request but the
/// index fast path ran on the executor, so its segments plus the
/// "pf-indexed" ones are all segments dispatched. Returns "" when both
/// identities hold.
std::string CheckSegmentAccounting(const gkx::obs::json::Value& doc) {
  for (const char* path :
       {"exec.staged_segments", "exec.parallel_segments",
        "exec.sequential_segments", "exec.skipped_segments"}) {
    if (doc.FindPath(path) == nullptr) {
      return std::string("missing field \"") + path + "\"";
    }
  }
  const auto* segments = doc.Find("segment_route_counts");
  if (segments == nullptr) return "missing section \"segment_route_counts\"";
  const double staged = doc.FindPath("exec.staged_segments")->AsNumber();
  const double exec_buckets =
      doc.FindPath("exec.parallel_segments")->AsNumber() +
      doc.FindPath("exec.sequential_segments")->AsNumber() +
      doc.FindPath("exec.skipped_segments")->AsNumber();
  if (exec_buckets != staged) {
    return "exec.parallel_segments + exec.sequential_segments + "
           "exec.skipped_segments != exec.staged_segments";
  }
  double segment_total = 0.0;
  for (const auto& [label, count] : segments->members()) {
    segment_total += count.AsNumber();
  }
  const auto* indexed = segments->Find("pf-indexed");
  if (staged + (indexed != nullptr ? indexed->AsNumber() : 0.0) !=
      segment_total) {
    return "exec.staged_segments + segment_route_counts.pf-indexed != "
           "sum(segment_route_counts.*)";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    return Fail("usage: check_stats_json <stats.json>");
  }
  std::ifstream in(argv[1]);
  if (!in) return Fail(std::string("cannot open ") + argv[1]);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto parsed = gkx::obs::json::Parse(text);
  if (!parsed.ok()) {
    return Fail("parse error: " + parsed.status().ToString());
  }
  const gkx::obs::json::Value& root = *parsed;

  const auto* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "gkx-stats-v1") {
    return Fail("missing or wrong \"schema\" (want \"gkx-stats-v1\")");
  }

  for (const char* section :
       {"service", "plan_cache", "answer_cache", "subscriptions",
        "evaluator_counts", "segment_route_counts", "exec", "latency_ms",
        "routes", "metrics", "slow_queries"}) {
    if (root.Find(section) == nullptr) {
      return Fail(std::string("missing section \"") + section + "\"");
    }
  }

  for (const char* path :
       {"service.requests", "service.failures", "service.documents",
        "service.tracing",
        "latency_ms.count", "latency_ms.p50", "latency_ms.p99",
        "latency_ms.p999", "latency_ms.max"}) {
    if (root.FindPath(path) == nullptr) {
      return Fail(std::string("missing field \"") + path + "\"");
    }
  }

  // Always-on latency: one sample per successful request.
  const double requests = root.FindPath("service.requests")->AsNumber();
  const double failures = root.FindPath("service.failures")->AsNumber();
  const double latency_count = root.FindPath("latency_ms.count")->AsNumber();
  if (latency_count != requests - failures) {
    return Fail("latency_ms.count != service.requests - service.failures");
  }

  const std::string segments_error = CheckSegmentAccounting(root);
  if (!segments_error.empty()) return Fail(segments_error);

  // Route-histogram reconciliation, offline: with tracing active since
  // construction, each route's histogram count equals its segment counter
  // and the totals match exactly.
  const bool tracing = root.FindPath("service.tracing")->AsBool();
  if (tracing) {
    const auto& routes = *root.Find("routes");
    const auto& segments = *root.Find("segment_route_counts");
    double route_total = 0.0, segment_total = 0.0;
    for (const auto& [label, summary] : routes.members()) {
      const auto* count = summary.Find("count");
      if (count == nullptr) {
        return Fail("routes." + label + " has no count");
      }
      route_total += count->AsNumber();
      const auto* segment = segments.Find(label);
      if (segment == nullptr) {
        return Fail("routes." + label + " has no segment_route_counts twin");
      }
      if (segment->AsNumber() != count->AsNumber()) {
        return Fail("routes." + label + ".count != segment_route_counts." +
                    label);
      }
    }
    for (const auto& [label, count] : segments.members()) {
      segment_total += count.AsNumber();
      if (routes.Find(label) == nullptr) {
        return Fail("segment_route_counts." + label + " has no routes twin");
      }
    }
    if (route_total != segment_total) {
      return Fail("sum(routes.*.count) != sum(segment_route_counts.*)");
    }
  }

  // Durable services export the wal.* family (src/wal/wal.hpp). The
  // section is optional — an in-memory service never creates the metrics —
  // but when a WAL was attached the whole family must be present and
  // reconcile: each enqueued record is awaited exactly once (records ==
  // append_ms.count) and occupies at least the minimum frame on disk
  // (8-byte frame header + 13-byte minimum payload, src/wal/record.hpp).
  const auto* wal = root.FindPath("metrics.wal");
  if (wal != nullptr) {
    for (const char* field :
         {"append_ms", "fsync_batch_ms", "checkpoint_ms", "replay_ms",
          "records", "bytes", "torn_tail"}) {
      if (wal->Find(field) == nullptr) {
        return Fail(std::string("metrics.wal present but missing \"") + field +
                    "\"");
      }
    }
    const double wal_records = wal->Find("records")->AsNumber();
    const auto* append_count = wal->FindPath("append_ms.count");
    if (append_count == nullptr) {
      return Fail("metrics.wal.append_ms has no count");
    }
    if (append_count->AsNumber() != wal_records) {
      return Fail("metrics.wal.records != metrics.wal.append_ms.count");
    }
    if (wal->Find("bytes")->AsNumber() < wal_records * 21.0) {
      return Fail("metrics.wal.bytes < records * minimum frame size (21)");
    }
    if (wal->Find("torn_tail")->AsNumber() < 0.0) {
      return Fail("metrics.wal.torn_tail is negative");
    }
  }

  // Sharded exports (ShardedQueryService::ExportStats) carry the same
  // aggregated document at top level plus a shards[] breakdown — one full
  // per-shard document each. The aggregate is recomputed here from the
  // breakdown: requests, failures, documents, latency samples, and every
  // per-route segment counter must sum to the top-level figures exactly
  // (scatter-gather may reorder work across shards but can neither invent
  // nor drop any of it).
  const auto* shards = root.Find("shards");
  if (shards != nullptr) {
    const auto* declared = root.FindPath("sharding.shards");
    if (declared == nullptr) {
      return Fail("\"shards\" breakdown without \"sharding.shards\"");
    }
    if (!shards->is_array() ||
        declared->AsNumber() != static_cast<double>(shards->items().size())) {
      return Fail("sharding.shards != len(shards)");
    }
    double shard_requests = 0, shard_failures = 0, shard_documents = 0,
           shard_latency = 0;
    std::map<std::string, double> shard_segments;
    for (const auto& shard : shards->items()) {
      for (const char* path :
           {"shard", "service.requests", "service.failures",
            "service.documents", "latency_ms.count"}) {
        if (shard.FindPath(path) == nullptr) {
          return Fail(std::string("shards[] entry missing \"") + path + "\"");
        }
      }
      shard_requests += shard.FindPath("service.requests")->AsNumber();
      shard_failures += shard.FindPath("service.failures")->AsNumber();
      shard_documents += shard.FindPath("service.documents")->AsNumber();
      shard_latency += shard.FindPath("latency_ms.count")->AsNumber();
      const std::string shard_error = CheckSegmentAccounting(shard);
      if (!shard_error.empty()) return Fail("shards[] entry: " + shard_error);
      const auto* segments = shard.Find("segment_route_counts");
      for (const auto& [label, count] : segments->members()) {
        shard_segments[label] += count.AsNumber();
      }
    }
    if (shard_requests != requests) {
      return Fail("sum(shards[].service.requests) != service.requests");
    }
    if (shard_failures != failures) {
      return Fail("sum(shards[].service.failures) != service.failures");
    }
    if (shard_documents != root.FindPath("service.documents")->AsNumber()) {
      return Fail("sum(shards[].service.documents) != service.documents");
    }
    if (shard_latency != latency_count) {
      return Fail("sum(shards[].latency_ms.count) != latency_ms.count");
    }
    const auto& segments = *root.Find("segment_route_counts");
    for (const auto& [label, count] : segments.members()) {
      if (shard_segments[label] != count.AsNumber()) {
        return Fail("sum(shards[].segment_route_counts." + label +
                    ") != segment_route_counts." + label);
      }
      shard_segments.erase(label);
    }
    if (!shard_segments.empty()) {
      return Fail("shards[] carry segment_route_counts." +
                  shard_segments.begin()->first +
                  " that the aggregate lacks");
    }
  }

  std::printf(
      "check_stats_json: %s ok (%zu bytes, tracing %s, wal %s, shards %s)\n",
      argv[1], text.size(), tracing ? "on" : "off",
      wal != nullptr ? "on" : "off",
      shards != nullptr ? std::to_string(shards->items().size()).c_str()
                        : "n/a");
  return 0;
}
