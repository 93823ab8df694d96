// Service-level observability primitives shared by the stats snapshot and
// the exporter. Latency percentiles come from the obs::Histogram (all-time,
// exact-by-bucket — see obs/histogram.hpp); the old sliding-window
// LatencyRecorder is gone, and with it its recency bias: it kept only the
// last 4096 samples, so its Summary() silently reported a window percentile
// against an all-time count.

#ifndef GKX_SERVICE_STATS_HPP_
#define GKX_SERVICE_STATS_HPP_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"

namespace gkx::service {

/// All-time percentile summary of request latencies, in milliseconds.
struct LatencySummary {
  int64_t count = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

/// Converts an obs histogram summary (kNanos histograms already display in
/// milliseconds) into the service-facing latency struct.
inline LatencySummary ToLatencySummary(const obs::HistogramSummary& h) {
  LatencySummary out;
  out.count = h.count;
  out.p50_ms = h.p50;
  out.p90_ms = h.p90;
  out.p99_ms = h.p99;
  out.p999_ms = h.p999;
  out.max_ms = h.max;
  out.mean_ms = h.mean;
  return out;
}

/// Output flavour of QueryService::ExportStats.
enum class StatsFormat {
  kText,  // flat `gkx_section_name value` lines (Prometheus-style)
  kJson,  // the structured "gkx-stats-v1" document
};

/// Per-label counts in the one route vocabulary: how often each
/// Answer.evaluator label produced an answer ("pf-frontier", "core-linear",
/// "cvt", "pf-frontier+cvt", "pf-indexed", ...), or how often each route ran
/// as a plan segment ("pf-frontier", "core-linear", "cvt", "pf-indexed").
class EvaluatorCounters {
 public:
  void Increment(std::string_view evaluator) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_[std::string(evaluator)];
  }

  std::map<std::string, int64_t> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> counts_;
};

}  // namespace gkx::service

#endif  // GKX_SERVICE_STATS_HPP_
