// Helpers the three workloads share: the fault-injection tap, route
// families, the expected-answer cache of the correctness gates, and the
// Stats() deltas behind the per-layer counts.

#ifndef GKX_PERFBENCH_SUPPORT_HPP_
#define GKX_PERFBENCH_SUPPORT_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/engine.hpp"
#include "perfbench/common.hpp"
#include "service/query_service.hpp"

namespace gkx::perfbench {

/// An answer_tap that corrupts every answer it sees (drops or adds a node,
/// flips a boolean, shifts a number, extends a string).
std::function<void(eval::Engine::Answer*)> CorruptingTap();

/// "pf", "core_linear", "cvt" or "hybrid" for an Answer.evaluator label.
std::string RouteFamily(const std::string& evaluator);

/// Expected answer digests (testkit::AnswerDigest of a fresh
/// Engine::RunPlan), memoised per key.
class ExpectedAnswers {
 public:
  /// The digest of running `plan` on `doc`; `key` names the pair.
  const std::string& Get(int64_t key, const xml::Document& doc,
                         const eval::Engine::Plan& plan);

 private:
  eval::Engine engine_;
  std::unordered_map<int64_t, std::string> digests_;
};

/// The per-layer counts taken from two Stats() snapshots around a measured
/// phase. `requests` and `updates` are what the driver issued in it.
void AddStatsDeltas(const service::ServiceStats& before,
                    const service::ServiceStats& after, int64_t requests,
                    int64_t updates, Outcome* out);

/// The counts that repeat exactly at a fixed seed, from two snapshots
/// around a fixed-length stretch of the schedule.
void AddDeterministicCounts(const service::ServiceStats& before,
                            const service::ServiceStats& after, Outcome* out);

/// The host's speed, measured with a fixed reference kernel (hash-map
/// lookups, a sort, string building; no gkx code) timed in thread CPU time
/// on the driver thread while the program is idle.
///
/// CPU time keeps the host's steal out of the timed metrics, but not the
/// rest of what a shared host does: on the 4-vCPU VM this was written on,
/// the same code took up to 1.7x the CPU time from one stretch of minutes
/// to the next, and the reference kernel slows with it. Dividing a run's CPU times
/// by its speed factor (the kernel's median time over kNominalMs) takes
/// most of that drift out. The factor is 1 where the kernel takes
/// kNominalMs; the kernel never runs inside a timed stretch. Each workload
/// samples it ten times before every set-up (for setup_s) and every
/// kEveryMs of the measured phase (for the phase metrics).
class HostSpeed {
 public:
  static constexpr double kNominalMs = 2.5;
  static constexpr double kEveryMs = 50.0;

  /// Runs the kernel once and records its thread CPU time.
  void Sample();
  /// Runs it when kEveryMs of wall time have passed since the last run.
  void MaybeSample();
  /// Median kernel time / kNominalMs (1 before any sample).
  double Factor() const;
  size_t samples() const { return ms_.size(); }

 private:
  std::vector<double> ms_;
  int64_t last_ns_ = 0;
};

/// Operations per CPU-second of the process over the phase.
double CpuRate(const PhaseRecord& phase);

/// Reads are taken this many at a time, in phase order, for read_cpu_ms.
inline constexpr size_t kReadGroup = 32;

/// The end-to-end metrics of a phase, in process CPU time divided by the
/// host's speed factor: ops_per_cpu_s, and read_cpu_ms — the median over
/// consecutive groups of kReadGroup read calls of their mean CPU time. (The
/// median of single calls moved up to 15 % between runs of one seed while
/// the mean stayed within 5 %: it sits between clusters of cheap and dear
/// calls, and which cluster wins flips with the host.) For the
/// per-layer table: the speed factor and its sample count, wall-clock
/// throughput and median read latency (wall.ops_per_s, wall.read_p50_ms),
/// update_p50_ms when the phase wrote, and the wall tail over the whole
/// phase (read_p99_ms with its sample count).
void AddPhaseMetrics(const PhaseRecord& phase, const HostSpeed& speed, Outcome* out);

/// 1 − traced ops_per_cpu_s / untraced, for the per-layer table.
void AddTraceOverhead(const PhaseRecord& untraced, const PhaseRecord& traced,
                      Outcome* out);

/// "0.812 0.797 0.803" — the set-up repetitions, for the report.
std::string JoinSeconds(const std::vector<double>& seconds);

/// Compiles every text; a failure is a benchmark-input bug, reported as a
/// gate failure (the returned list then stops short).
std::vector<eval::Engine::Plan> CompileAll(const std::vector<std::string>& texts,
                                           Outcome* out);

}  // namespace gkx::perfbench

#endif  // GKX_PERFBENCH_SUPPORT_HPP_
