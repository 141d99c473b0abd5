// Extension experiment: observability overhead. The obs layer promises
// that instrumenting the serving hot path (per-chunk wall timing plus
// the sampled per-event phase split behind core::PhaseListener) costs
// at most 3% throughput on a realistic corpus. This harness enforces
// that bound and reports what the instrumentation buys:
//
//   (a) Instrumented vs bare StreamingQuery runs over chunked DBLP
//       (the fig15-style path), interleaved runs, trimmed-mean floors;
//       overhead above the bound fails the run (exit status 1).
//   (b) The per-document phase breakdown the listener produced — the
//       Figure 18 split, now available at serve time.
//   (c) Histogram::Record() cost in isolation (ns/op), the primitive
//       every instrumented path bottoms out in.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/timing.h"
#include "core/streaming_query.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/timer.h"

namespace xsq::bench {
namespace {

constexpr size_t kChunkBytes = 64 * 1024;
constexpr double kOverheadBound = 0.03;  // the 3% acceptance bar
constexpr const char* kQuery = "/dblp/article/title/text()";

// Accumulates phase samples exactly the way service::Session does.
class PhaseCollector : public core::PhaseListener {
 public:
  void OnPhaseSample(uint64_t parse_ns, uint64_t automaton_ns,
                     uint64_t buffer_ns) override {
    parse_ns_ += parse_ns;
    automaton_ns_ += automaton_ns;
    buffer_ns_ += buffer_ns;
  }
  uint64_t parse_ns() const { return parse_ns_; }
  uint64_t automaton_ns() const { return automaton_ns_; }
  uint64_t buffer_ns() const { return buffer_ns_; }
  void Reset() { parse_ns_ = automaton_ns_ = buffer_ns_ = 0; }

 private:
  uint64_t parse_ns_ = 0;
  uint64_t automaton_ns_ = 0;
  uint64_t buffer_ns_ = 0;
};

// One full evaluation of kQuery over `xml` in kChunkBytes chunks.
// `listener` null = the bare baseline, non-null = the instrumented run.
double RunOnce(const std::string& xml, core::PhaseListener* listener,
               uint64_t* items_out) {
  auto query = core::StreamingQuery::Open(kQuery);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return -1.0;
  }
  if (listener != nullptr) (*query)->set_phase_listener(listener);
  auto start = std::chrono::steady_clock::now();
  for (size_t pos = 0; pos < xml.size(); pos += kChunkBytes) {
    std::string_view chunk(xml.data() + pos,
                           std::min(kChunkBytes, xml.size() - pos));
    if (!(*query)->Push(chunk).ok()) return -1.0;
  }
  if (!(*query)->Close().ok()) return -1.0;
  double elapsed = Seconds(start);
  uint64_t items = 0;
  while ((*query)->NextItem()) ++items;
  if (items_out != nullptr) *items_out = items;
  return elapsed;
}

// Mean of the fastest half of `times`. The box this runs on suffers
// rare but large preemption stalls (individual evaluations swing
// +-25%), so means and medians over all runs are hopelessly noisy.
// Stalls only ever ADD time, so the fastest half of a large
// interleaved sample clusters tightly at the true cost floor — the
// quantity the overhead bound is actually about.
double TrimmedMean(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  size_t keep = times.size() / 2;
  if (keep == 0) keep = 1;
  double total = 0.0;
  for (size_t i = 0; i < keep; ++i) total += times[i];
  return total / static_cast<double>(keep);
}

int OverheadOnDblp(const std::string& xml, bool* within_bound,
                   PhaseCollector* phases) {
  std::printf("\n(a) Instrumentation overhead on chunked DBLP (%s, %zuKB "
              "chunks)\n",
              FormatBytes(xml.size()).c_str(), kChunkBytes / 1024);

  // Bare and instrumented evaluations strictly alternate so both
  // variants sample the same load profile; the overhead is the ratio of
  // their trimmed means (see TrimmedMean for why not plain mean/median).
  constexpr int kEvalsPerVariant = 40;
  uint64_t bare_items = 0;
  uint64_t instrumented_items = 0;
  std::vector<double> bare_times;
  std::vector<double> instrumented_times;
  for (int i = 0; i < kEvalsPerVariant; ++i) {
    double bare = RunOnce(xml, nullptr, &bare_items);
    phases->Reset();
    double instrumented = RunOnce(xml, phases, &instrumented_items);
    if (bare < 0.0 || instrumented < 0.0) return 1;
    bare_times.push_back(bare);
    instrumented_times.push_back(instrumented);
  }
  if (bare_items != instrumented_items) {
    std::fprintf(stderr, "result mismatch: bare %llu vs instrumented %llu\n",
                 static_cast<unsigned long long>(bare_items),
                 static_cast<unsigned long long>(instrumented_items));
    return 1;
  }

  double bare_floor = TrimmedMean(bare_times);
  double instrumented_floor = TrimmedMean(instrumented_times);
  double overhead = instrumented_floor / bare_floor - 1.0;
  if (overhead < 0.0) overhead = 0.0;  // noise floor: instrumented won
  *within_bound = overhead <= kOverheadBound;

  TablePrinter table({"Variant", "Floor (ms)", "MB/s", "Items", "Overhead"});
  double mb = static_cast<double>(xml.size()) / (1024.0 * 1024.0);
  table.AddRow({"bare", FormatDouble(bare_floor * 1e3, 1),
                FormatDouble(mb / bare_floor, 1), std::to_string(bare_items),
                "-"});
  table.AddRow({"instrumented", FormatDouble(instrumented_floor * 1e3, 1),
                FormatDouble(mb / instrumented_floor, 1),
                std::to_string(instrumented_items),
                FormatDouble(overhead * 100.0, 2) + "%"});
  table.Print();
  std::printf("bound: <= %.0f%% -> %s\n", kOverheadBound * 100.0,
              *within_bound ? "PASS" : "FAIL");
  return 0;
}

void PhaseBreakdown(const PhaseCollector& phases) {
  std::printf("\n(b) Phase split of the last instrumented run (Figure 18 "
              "at serve time)\n");
  double parse_ms = static_cast<double>(phases.parse_ns()) / 1e6;
  double automaton_ms = static_cast<double>(phases.automaton_ns()) / 1e6;
  double buffer_ms = static_cast<double>(phases.buffer_ns()) / 1e6;
  double total_ms = parse_ms + automaton_ms + buffer_ms;
  if (total_ms <= 0.0) {
    std::printf("  (no samples — built with XSQ_OBS=OFF)\n");
    return;
  }
  TablePrinter table({"Phase", "Time (ms)", "Share"});
  table.AddRow({"SAX parse", FormatDouble(parse_ms, 1),
                FormatDouble(parse_ms / total_ms * 100.0, 1) + "%"});
  table.AddRow({"automaton", FormatDouble(automaton_ms, 1),
                FormatDouble(automaton_ms / total_ms * 100.0, 1) + "%"});
  table.AddRow({"buffer", FormatDouble(buffer_ms, 1),
                FormatDouble(buffer_ms / total_ms * 100.0, 1) + "%"});
  table.Print();
}

void RecordMicrocost() {
  std::printf("\n(c) obs primitives in isolation\n");
  obs::Registry registry;
  obs::Histogram* histogram = registry.GetOrCreateHistogram("bench_us");
  constexpr uint64_t kOps = 2'000'000;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) histogram->Record(i & 0xffff);
  double record_s = Seconds(start);

  start = std::chrono::steady_clock::now();
  constexpr int kSnapshots = 20000;
  uint64_t guard = 0;
  for (int i = 0; i < kSnapshots; ++i) guard += histogram->snapshot().count;
  double snapshot_s = Seconds(start);

  TablePrinter table({"Primitive", "ns/op"});
  table.AddRow({"Histogram::Record",
                FormatDouble(record_s / static_cast<double>(kOps) * 1e9, 1)});
  table.AddRow(
      {"Histogram::snapshot",
       FormatDouble(snapshot_s / static_cast<double>(kSnapshots) * 1e9, 0)});
  table.Print();
  if (guard == 0) std::printf("\n");  // keep the snapshot loop live
}

int Main() {
  PrintHeader("Extension: observability",
              "instrumentation overhead bound + serve-time phase split");
  std::string xml = datagen::GenerateDblp(ScaledBytes(6u << 20), 1);

  bool within_bound = false;
  PhaseCollector phases;
  if (OverheadOnDblp(xml, &within_bound, &phases) != 0) return 1;
  PhaseBreakdown(phases);
  RecordMicrocost();

  std::printf(
      "\nExpected shape: two-level sampling (every 32nd chunk through the\n"
      "phase shim, every 128th event inside it clocked) stays within the\n"
      "%.0f%% bound; the phase split mirrors Figure 18; Record() is a\n"
      "handful of relaxed atomic adds.\n",
      kOverheadBound * 100.0);
  return within_bound ? 0 : 1;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
