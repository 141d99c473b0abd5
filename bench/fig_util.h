// Shared helpers for the per-figure benchmark binaries.
//
// Every binary regenerates one table/figure of the paper's Section 6 on
// synthetic corpora (see DESIGN.md for the experiment index). Corpus
// sizes default to a few MB so the whole suite runs in seconds; set
// XSQ_BENCH_SCALE=N to scale all inputs by N (e.g. 16 approximates the
// paper's dataset sizes).
#ifndef XSQ_BENCH_FIG_UTIL_H_
#define XSQ_BENCH_FIG_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "bench_util/timing.h"

namespace xsq::bench {

inline double BenchScale() {
  const char* env = std::getenv("XSQ_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

inline size_t ScaledBytes(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * BenchScale());
}

// One system's throughput relative to the PureParser on the same bytes
// (Section 6.2), from paired rounds: bench_util's TimePaired alternates
// a PureParser run and a system run, so host speed drift lands on both
// legs of a round instead of in the ratio, and runs each leg's turn as
// a warm-up and a timed call. Only the timed calls' measurements
// count: a parse that follows a DOM build and teardown runs slower
// than one that follows a parse.
struct PairedRun {
  RunMeasurement run;     // the system's last run (support, items)
  double relative = 0.0;  // median over rounds of the per-round ratio
  double mb_per_s = 0.0;  // the system's median throughput
};

inline Result<PairedRun> RunPaired(System system, std::string_view query_text,
                                   std::string_view xml, int rounds = 15) {
  // One unpaired run first: support check and warm-up.
  Result<RunMeasurement> first = RunSystem(system, query_text, xml);
  if (!first.ok()) return first.status();
  PairedRun paired{*first};
  if (!first->supported) return paired;
  // Every call's measurement, in call order: TimePaired calls a leg
  // twice per turn, so the odd entries are the timed calls.
  std::vector<RunMeasurement> pure;
  std::vector<RunMeasurement> own;
  Status failed = Status::OK();
  auto measure = [&](System leg, std::string_view query,
                     std::vector<RunMeasurement>* into) {
    Result<RunMeasurement> m = RunSystem(leg, query, xml);
    if (m.ok()) {
      into->push_back(*m);
    } else {
      failed = m.status();
    }
  };
  // The ratio is taken from each run's own phase timers (RelativeThroughput,
  // as before); TimePaired supplies the alternating schedule.
  TimePaired(
      rounds, [&] { measure(System::kPureParser, "", &pure); },
      [&] { measure(system, query_text, &own); });
  XSQ_RETURN_IF_ERROR(failed);
  std::vector<double> ratios;
  std::vector<double> rates;
  for (size_t r = 1; r < own.size(); r += 2) {
    ratios.push_back(RelativeThroughput(own[r], pure[r]));
    rates.push_back(own[r].throughput_mb_per_s());
  }
  paired.run = own.back();
  paired.relative = Median(std::move(ratios));
  paired.mb_per_s = Median(std::move(rates));
  return paired;
}

// Runs `reps` times and keeps the fastest run (steadier numbers for
// small corpora).
inline Result<RunMeasurement> RunBest(System system,
                                      std::string_view query_text,
                                      std::string_view xml, int reps = 3) {
  Result<RunMeasurement> best = RunSystem(system, query_text, xml);
  if (!best.ok() || !best->supported) return best;
  for (int i = 1; i < reps; ++i) {
    Result<RunMeasurement> next = RunSystem(system, query_text, xml);
    if (next.ok() && next->supported &&
        next->total_seconds() < best->total_seconds()) {
      best = next;
    }
  }
  return best;
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("==================================================\n");
  std::printf("%s: %s\n", figure, description);
  std::printf("(scale=%.2g; set XSQ_BENCH_SCALE to resize corpora)\n",
              BenchScale());
  std::printf("==================================================\n");
}

}  // namespace xsq::bench

#endif  // XSQ_BENCH_FIG_UTIL_H_
