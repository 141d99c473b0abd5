// xsq_perfbench: one run of one workload.
//
//   xsq_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--source-id ID] [--smoke]
//
// Prints the run record as one JSON line, then, as the last line of
// standard output, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status: 0 on success; 1 when any operation failed:
// a wrong answer, an ERR where the reference answered OK, or a
// transport failure ("correct" is then false); 2 when the run could not
// be made (refused build, setup failure); 3 when a percentile lacked
// the samples to be reported (allowed with --smoke, which only checks
// that every metric is present).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_XSQ_SIMD
#define PERFBENCH_XSQ_SIMD "unknown"
#endif
#ifndef PERFBENCH_XSQ_OBS
#define PERFBENCH_XSQ_OBS "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
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
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: xsq_perfbench --workload stream|cluster_read "
               "--seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--source-id ID] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string source_id = "unknown";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--trace") opt.trace = value() == "1";
    else if (arg == "--out-dir") opt.out_dir = value();
    else if (arg == "--source-id") source_id = value();
    else if (arg == "--smoke") smoke = true;
    else return Usage();
  }
  if (opt.workload.empty() || opt.seconds <= 0) return Usage();
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refused: %s build; timings need a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  RunResult result;
  const bool ran = opt.trace ? RunTraced(opt, &result) : RunWorkload(opt, &result);
  if (!ran) {
    std::fprintf(stderr, "run failed:\n");
    for (const std::string& e : result.errors) std::fprintf(stderr, "  %s\n", e.c_str());
    return 2;
  }

  const auto expected = opt.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool complete = true;
  std::string metrics = "{";
  std::string samples = "{";
  for (const auto& [name, unit] : expected) {
    const Metric* m = nullptr;
    for (const Metric& candidate : result.metrics) {
      if (candidate.name == name) m = &candidate;
    }
    if (m == nullptr || m->unit != unit || !m->value.has_value()) {
      complete = false;
      std::fprintf(stderr, "metric %s: %s\n", name.c_str(),
                   m == nullptr ? "missing" : "too few samples");
    }
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " +
               (m != nullptr && m->value ? JsonNumber(*m->value) : "null") +
               ", \"unit\": " + JsonString(unit) + "}";
    if (m != nullptr && m->samples > 0) {
      if (samples.size() > 1) samples += ",";
      samples += JsonString(name) + ":" + std::to_string(m->samples);
    }
    std::fprintf(stderr, "  %-32s %14s %s\n", name.c_str(),
                 m != nullptr && m->value ? JsonNumber(*m->value).c_str() : "n/a",
                 unit.c_str());
  }
  metrics += "}";
  samples += "}";

  // Every operation of a workload is expected to succeed, so any
  // failure is an output that does not match its reference.
  const bool correct = result.failed == 0;
  std::string record = "{\"run_record\": {";
  record += "\"workload\": " + JsonString(opt.workload);
  record += ", \"seed\": " + std::to_string(opt.seed);
  record += ", \"seconds\": " + JsonNumber(opt.seconds);
  record += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  record += ", \"cpu\": " + JsonString(CpuModel());
  record += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  record += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  record += ", \"xsq_simd\": " + JsonString(PERFBENCH_XSQ_SIMD);
  record += ", \"xsq_obs\": " + JsonString(PERFBENCH_XSQ_OBS);
  record += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  record += ", \"source\": " + JsonString(source_id);
  record += ", \"samples\": " + samples;
  record += ", \"wrong\": " + std::to_string(result.wrong);
  for (const auto& [key, value] : result.record) {
    record += ", " + JsonString(key) + ": " + value;
  }
  std::string errors = "[";
  for (const std::string& e : result.errors) {
    errors += (errors.size() > 1 ? ", " : "") + JsonString(e);
  }
  record += ", \"errors\": " + errors + "]}}";
  std::printf("%s\n", record.c_str());
  for (const std::string& e : result.errors) std::fprintf(stderr, "error: %s\n", e.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  if (!correct) return 1;
  if (!complete && !smoke) return 3;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
