// perfbench_driver — runs one benchmark workload through gkx's public API
// and prints, as its last line, one JSON object for perfbench/run.py.
//
//   perfbench_driver --workload serving|analytic|churn --seed N
//                    --seconds S --trace 0|1 [--trace-out FILE]
//                    [--work-dir DIR] [--scale full|smoke] [--inject-fault]
//
// Exit code 0 = every correctness gate held; 1 = a gate failed (the JSON
// line still says which); 2 = bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace gkx::perfbench {

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void PrintNumberMap(const std::map<std::string, double>& values) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", Escape(name).c_str(), value);
    first = false;
  }
  std::printf("}");
}

bool WriteSpans(const std::string& path, const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"fields\": [\"name\", \"id\", \"parent\", \"request\", "
                  "\"start_ns\", \"end_ns\", \"arg\", \"label\"],\n\"spans\": [\n");
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "[\"%s\", %lld, %lld, %lld, %lld, %lld, %lld, \"%s\"]%s\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.arg), Escape(s.label).c_str(),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "serving|analytic|churn --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--work-dir DIR] [--scale full|smoke] "
               "[--inject-fault]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace gkx::perfbench

int main(int argc, char** argv) {
  using namespace gkx::perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--inject-fault") {
      args.inject_fault = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + flag).c_str());
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else if (flag == "--scale") {
      if (std::strcmp(v, "smoke") == 0) {
        args.scale = Scale::kSmoke;
      } else if (std::strcmp(v, "full") != 0) {
        return Usage("--scale must be full or smoke");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.trace && args.trace_out.empty()) return Usage("--trace 1 needs --trace-out");

  Tracer tracer(args.trace);
  Outcome out;
  if (args.workload == "serving") {
    out = RunServing(args, &tracer);
  } else if (args.workload == "analytic") {
    out = RunAnalytic(args, &tracer);
  } else if (args.workload == "churn") {
    if (args.work_dir.empty()) return Usage("churn needs --work-dir");
    out = RunChurn(args, &tracer);
  } else {
    return Usage("unknown workload");
  }
  if (!args.trace) out.end_to_end["peak_rss_mb"] = PeakRssMb();
  if (args.trace && !WriteSpans(args.trace_out, tracer)) {
    out.errors.push_back("cannot write span dump " + args.trace_out);
  }

  // Host facts recorded with every run.
  out.config["host.nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out.config["host.build_type"] = PERFBENCH_BUILD_TYPE;
  out.config["pool_width"] = std::to_string(kPoolWidth);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              Escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
              out.errors.empty() ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  std::printf("\"errors\": [");
  for (size_t i = 0; i < out.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", Escape(out.errors[i]).c_str());
  }
  std::printf("], \"end_to_end\": ");
  PrintNumberMap(out.end_to_end);
  std::printf(", \"layer\": ");
  PrintNumberMap(out.layer);
  std::printf(", \"deterministic\": {");
  bool first = true;
  for (const auto& [name, value] : out.deterministic) {
    std::printf("%s\"%s\": %lld", first ? "" : ", ", Escape(name).c_str(),
                static_cast<long long>(value));
    first = false;
  }
  std::printf("}, \"schedule_digest\": \"%016llx\", \"config\": {",
              static_cast<unsigned long long>(out.schedule_digest));
  first = true;
  for (const auto& [name, value] : out.config) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", Escape(name).c_str(),
                Escape(value).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.errors.empty() ? 0 : 1;
}
