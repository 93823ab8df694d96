// Shared pieces of the benchmark driver: arguments, clocks, the in-memory
// span recorder of the traced run, and the result every workload returns.
//
// Only the driver thread records spans, so the recorder takes no lock.

#ifndef GKX_PERFBENCH_COMMON_HPP_
#define GKX_PERFBENCH_COMMON_HPP_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gkx::perfbench {

/// Input sizes: `kFull` is the benchmark; `kSmoke` is the benchmark's own
/// test, which only checks the plumbing.
enum class Scale { kFull, kSmoke };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Where the traced run writes its span dump.
  std::string trace_out;
  /// A directory inside the checkout the churn workload may write to.
  std::string work_dir;
  /// Test hook: perturb answers through QueryService::Options::answer_tap
  /// so the correctness gates must fail.
  bool inject_fault = false;
};

/// Width of the one pool every workload uses. Never ThreadPool::Shared(),
/// which sizes itself by hardware_concurrency.
inline constexpr int kPoolWidth = 2;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// CPU time of the whole process (every thread: driver, server, pool), in
/// nanoseconds. The timed metrics use it rather than the wall clock: on a
/// shared virtual machine the wall clock also counts the time the host
/// takes the CPUs away (steal), which swings 2x from minute to minute and
/// says nothing about the program. The kernel keeps steal out of CPU time.
inline int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double CpuMsSince(int64_t start_ns) {
  return static_cast<double>(CpuNs() - start_ns) / 1e6;
}

/// A wall clock and a process CPU clock that can be paused together around
/// the driver's own work (input generation, answer checks), so a measured
/// phase counts program time only. The wall clock bounds how long a phase
/// runs; the CPU clock is what the timed metrics report.
class PhaseClock {
 public:
  void Start() {
    running_ = true;
    start_ns_ = NowNs();
    cpu_start_ns_ = CpuNs();
  }
  void Pause() {
    if (running_) {
      total_ns_ += NowNs() - start_ns_;
      cpu_total_ns_ += CpuNs() - cpu_start_ns_;
    }
    running_ = false;
  }
  void Resume() { Start(); }
  double Seconds() const {
    int64_t ns = total_ns_;
    if (running_) ns += NowNs() - start_ns_;
    return static_cast<double>(ns) / 1e9;
  }
  double CpuSeconds() const {
    int64_t ns = cpu_total_ns_;
    if (running_) ns += CpuNs() - cpu_start_ns_;
    return static_cast<double>(ns) / 1e9;
  }

 private:
  bool running_ = false;
  int64_t start_ns_ = 0;
  int64_t total_ns_ = 0;
  int64_t cpu_start_ns_ = 0;
  int64_t cpu_total_ns_ = 0;
};

/// Median by nth_element (copies; the inputs stay in arrival order).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  return values[mid];
}

/// Nearest-rank percentile, p in (0, 100].
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

/// One completed operation of a measured phase: how many operations it
/// counts (a batch counts each request), its wall latency and the process
/// CPU time it took.
struct Sample {
  int ops = 1;
  double ms = 0;
  double cpu_ms = 0;
};

/// Everything one measured phase recorded.
struct PhaseRecord {
  std::vector<Sample> reads;
  std::vector<Sample> updates;
  double seconds = 0;      // phase wall clock at the end
  double cpu_seconds = 0;  // phase CPU clock at the end
};

/// One span: a driver call into a layer's public entry point.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;   // -1 = a root span
  int64_t request = -1;  // the operation this span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t arg = 0;        // span-specific: sub-batch size, shard, ...
  std::string label;      // span-specific: route family, ...
};

/// In-memory span recorder, written out once at exit. Disabled recorders
/// do nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int64_t Begin(const char* name, int64_t parent, int64_t request,
                int64_t arg = 0, std::string label = {}) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.id = static_cast<int64_t>(spans_.size());
    span.parent = parent;
    span.request = request;
    span.arg = arg;
    span.label = std::move(label);
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  /// Sets the label of an open or closed span (e.g. the route family an
  /// answer reported).
  void SetLabel(int64_t id, std::string label) {
    if (id >= 0) spans_[static_cast<size_t>(id)].label = std::move(label);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// What a workload hands back to main.
struct Outcome {
  std::vector<std::string> errors;  // non-empty = a correctness gate failed
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics of an untraced run, by name.
  std::map<std::string, double> end_to_end;
  /// Per-layer values the driver computes itself (Stats() deltas, sizes);
  /// the summariser adds the span-derived ones.
  std::map<std::string, double> layer;
  /// Counts that must repeat exactly at a fixed seed.
  std::map<std::string, int64_t> deterministic;
  uint64_t schedule_digest = 0;
  /// Stated configuration (pool widths, WAL placement, sizes).
  std::map<std::string, std::string> config;
};

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

Outcome RunServing(const Args& args, Tracer* tracer);
Outcome RunAnalytic(const Args& args, Tracer* tracer);
Outcome RunChurn(const Args& args, Tracer* tracer);

}  // namespace gkx::perfbench

#endif  // GKX_PERFBENCH_COMMON_HPP_
