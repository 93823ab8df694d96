#include "perfbench/support.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "testkit/oracle.hpp"

namespace gkx::perfbench {

std::function<void(eval::Engine::Answer*)> CorruptingTap() {
  return [](eval::Engine::Answer* answer) {
    eval::Value& v = answer->value;
    switch (v.type()) {
      case eval::ValueType::kNodeSet: {
        eval::NodeSet nodes = v.nodes();
        if (nodes.empty()) {
          nodes.push_back(0);
        } else {
          nodes.pop_back();
        }
        v = eval::Value::Nodes(std::move(nodes));
        break;
      }
      case eval::ValueType::kBoolean: v = eval::Value::Boolean(!v.boolean()); break;
      case eval::ValueType::kNumber: v = eval::Value::Number(v.number() + 1); break;
      case eval::ValueType::kString: v = eval::Value::String(v.string() + "!"); break;
    }
  };
}

std::string RouteFamily(const std::string& evaluator) {
  if (evaluator.find('+') != std::string::npos) return "hybrid";
  if (evaluator.rfind("pf", 0) == 0) return "pf";
  if (evaluator.rfind("core", 0) == 0) return "core_linear";
  if (evaluator.rfind("cvt", 0) == 0) return "cvt";
  return "other";
}

const std::string& ExpectedAnswers::Get(int64_t key, const xml::Document& doc,
                                        const eval::Engine::Plan& plan) {
  auto it = digests_.find(key);
  if (it != digests_.end()) return it->second;
  auto answer = engine_.RunPlan(doc, plan);
  std::string digest = answer.ok() ? testkit::AnswerDigest(answer.value().value)
                                   : "error: " + answer.status().ToString();
  return digests_.emplace(key, std::move(digest)).first->second;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int64_t SegmentTotal(const service::ServiceStats& s) {
  int64_t total = 0;
  for (const auto& [route, count] : s.segment_route_counts) total += count;
  return total;
}

}  // namespace

void AddStatsDeltas(const service::ServiceStats& before,
                    const service::ServiceStats& after, int64_t requests,
                    int64_t updates, Outcome* out) {
  const auto& a0 = before.answer_cache;
  const auto& a1 = after.answer_cache;
  const double hits = static_cast<double>(a1.hits - a0.hits);
  const double misses = static_cast<double>(a1.misses - a0.misses);
  out->layer["answer_cache.hit_ratio"] = Ratio(hits, hits + misses);
  out->layer["answer_cache.evictions_per_kreq"] =
      Ratio(1000.0 * static_cast<double>(a1.evictions - a0.evictions),
            static_cast<double>(requests));
  out->layer["answer_cache.invalidated_per_update"] =
      Ratio(static_cast<double>(a1.invalidations - a0.invalidations),
            static_cast<double>(updates));
  out->layer["answer_cache.retained_per_update"] = Ratio(
      static_cast<double>(a1.retained - a0.retained), static_cast<double>(updates));

  const auto& p0 = before.plan_cache;
  const auto& p1 = after.plan_cache;
  out->layer["plan.cache_hit_ratio"] =
      Ratio(static_cast<double>((p1.hits + p1.canonical_hits) -
                                (p0.hits + p0.canonical_hits)),
            static_cast<double>(p1.Lookups() - p0.Lookups()));
  out->layer["plan.segments_per_req"] =
      Ratio(static_cast<double>(SegmentTotal(after) - SegmentTotal(before)),
            static_cast<double>(after.requests - before.requests));
  out->layer["exec.parallel_share"] =
      Ratio(static_cast<double>(after.exec_parallel_segments -
                                before.exec_parallel_segments),
            static_cast<double>(after.staged_segments - before.staged_segments));

  const auto& s0 = before.subscriptions;
  const auto& s1 = after.subscriptions;
  const double u = static_cast<double>(updates);
  out->layer["subs.evaluations_per_update"] =
      Ratio(static_cast<double>(s1.evaluations - s0.evaluations), u);
  out->layer["subs.skipped_disjoint_per_update"] =
      Ratio(static_cast<double>(s1.skipped_disjoint - s0.skipped_disjoint), u);
  out->layer["subs.fired_per_update"] =
      Ratio(static_cast<double>(s1.fired - s0.fired), u);
}

void AddDeterministicCounts(const service::ServiceStats& before,
                            const service::ServiceStats& after, Outcome* out) {
  auto& d = out->deterministic;
  d["requests"] = after.requests - before.requests;
  d["failures"] = after.failures - before.failures;
  d["answer_cache.hits"] = after.answer_cache.hits - before.answer_cache.hits;
  d["answer_cache.misses"] = after.answer_cache.misses - before.answer_cache.misses;
  d["answer_cache.evictions"] =
      after.answer_cache.evictions - before.answer_cache.evictions;
  d["answer_cache.invalidations"] =
      after.answer_cache.invalidations - before.answer_cache.invalidations;
  d["answer_cache.retained"] =
      after.answer_cache.retained - before.answer_cache.retained;
  d["subs.fired"] = after.subscriptions.fired - before.subscriptions.fired;
  d["subs.skipped_disjoint"] =
      after.subscriptions.skipped_disjoint - before.subscriptions.skipped_disjoint;
  d["subs.evaluations"] =
      after.subscriptions.evaluations - before.subscriptions.evaluations;
  d["segments"] = SegmentTotal(after) - SegmentTotal(before);
  d["exec.parallel_segments"] =
      after.exec_parallel_segments - before.exec_parallel_segments;
}

void HostSpeed::Sample() {
  // Built once, outside the timed part: 64k xorshift words and a 16k-entry
  // map keyed by every fourth of them.
  static const std::vector<uint64_t> data = [] {
    std::vector<uint64_t> d(1 << 16);
    uint64_t x = 88172645463325252ULL;
    for (uint64_t& v : d) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
    return d;
  }();
  static const std::unordered_map<uint64_t, uint64_t> map = [] {
    std::unordered_map<uint64_t, uint64_t> m;
    for (size_t i = 0; i < 16384; ++i) m[data[i * 4]] = i;
    return m;
  }();
  timespec t0, t1;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  uint64_t acc = 0;
  for (size_t r = 0; r < 4; ++r) {
    for (size_t i = 0; i < 8192; ++i) {
      auto it = map.find(data[(i * 7 + r) & 0xffff]);
      acc += it == map.end() ? 1 : it->second;
    }
    std::vector<uint64_t> v(data.begin() + static_cast<long>(r * 4096),
                            data.begin() + static_cast<long>(r * 4096 + 4096));
    std::sort(v.begin(), v.end());
    acc += v[acc % v.size()];
    std::string text;
    for (size_t k = 0; k < 512; ++k) text += std::to_string(v[k] % 100000);
    acc += std::hash<std::string>{}(text);
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  static volatile uint64_t sink;
  sink = acc;
  ms_.push_back(static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e3 +
                static_cast<double>(t1.tv_nsec - t0.tv_nsec) / 1e6);
  last_ns_ = NowNs();
}

void HostSpeed::MaybeSample() {
  if (static_cast<double>(NowNs() - last_ns_) >= kEveryMs * 1e6) Sample();
}

double HostSpeed::Factor() const {
  return ms_.empty() ? 1.0 : Median(ms_) / kNominalMs;
}

double CpuRate(const PhaseRecord& phase) {
  int64_t ops = 0;
  for (const auto* stream : {&phase.reads, &phase.updates}) {
    for (const Sample& s : *stream) ops += s.ops;
  }
  return Ratio(static_cast<double>(ops), phase.cpu_seconds);
}

void AddPhaseMetrics(const PhaseRecord& phase, const HostSpeed& speed, Outcome* out) {
  std::vector<double> read_ms, read_cpu_ms, update_ms;
  int64_t ops = 0;
  for (const Sample& s : phase.reads) {
    read_ms.push_back(s.ms);
    read_cpu_ms.push_back(s.cpu_ms);
    ops += s.ops;
  }
  for (const Sample& s : phase.updates) {
    update_ms.push_back(s.ms);
    ops += s.ops;
  }
  const double factor = speed.Factor();
  out->end_to_end["ops_per_cpu_s"] = CpuRate(phase) * factor;
  std::vector<double> group_ms;
  const size_t group = std::min(kReadGroup, read_cpu_ms.size());
  for (size_t i = 0; group > 0 && i + group <= read_cpu_ms.size(); i += group) {
    double sum = 0;
    for (size_t k = i; k < i + group; ++k) sum += read_cpu_ms[k];
    group_ms.push_back(sum / static_cast<double>(group));
  }
  out->end_to_end["read_cpu_ms"] = Median(group_ms) / factor;
  out->layer["host.speed_factor"] = factor;
  out->layer["host.speed_samples"] = static_cast<double>(speed.samples());
  out->layer["wall.ops_per_s"] = Ratio(static_cast<double>(ops), phase.seconds);
  out->layer["wall.read_p50_ms"] = Median(read_ms);
  if (!update_ms.empty()) out->layer["update_p50_ms"] = Median(update_ms);
  out->layer["read_p99_ms"] = Percentile(read_ms, 99.0);
  out->layer["read_p99_samples"] = static_cast<double>(read_ms.size());
}

void AddTraceOverhead(const PhaseRecord& untraced, const PhaseRecord& traced,
                      Outcome* out) {
  out->layer["trace.overhead_frac"] = 1.0 - CpuRate(traced) / CpuRate(untraced);
}

std::string JoinSeconds(const std::vector<double>& seconds) {
  std::string out;
  for (double s : seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : " ", s);
    out += buf;
  }
  return out;
}

std::vector<eval::Engine::Plan> CompileAll(const std::vector<std::string>& texts,
                                           Outcome* out) {
  std::vector<eval::Engine::Plan> plans;
  plans.reserve(texts.size());
  for (const std::string& text : texts) {
    auto plan = eval::Engine::Compile(text);
    if (!plan.ok()) {
      out->errors.push_back("query does not compile: " + text);
      break;
    }
    plans.push_back(std::move(plan).value());
  }
  return plans;
}

}  // namespace gkx::perfbench
