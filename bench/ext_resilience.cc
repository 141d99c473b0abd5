// Extension experiment: resilience-layer cost and promptness. The
// cancellation/deadline layer promises that (a) keeping a CancelToken
// attached costs at most 2% throughput on the DBLP serving path — the
// token poll is a null test per sampled event plus one clock read per
// interval while a deadline is armed; (b) a tripped token is observed
// within 2x the engine's sampling granularity (CancelToken::
// kCheckIntervalEvents events), not at the next chunk boundary; and
// (c) the tape format's CRC32C trailers reject 100% of single-bit
// corruptions. This harness enforces all three; any violated bound
// fails the run (exit status 1).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/timing.h"
#include "core/cancel_token.h"
#include "core/streaming_query.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "tape/recorder.h"
#include "tape/tape.h"
#include "xml/events.h"

namespace xsq::bench {
namespace {

constexpr size_t kChunkBytes = 64 * 1024;
constexpr double kOverheadBound = 0.02;  // the 2% acceptance bar
constexpr const char* kQuery = "/dblp/article/title/text()";

// One full evaluation of kQuery over `xml` in kChunkBytes chunks.
// `token` null = the bare baseline; non-null = the guarded run, with a
// far-future deadline armed so every sampled poll also pays the
// steady_clock read (the worst honest case of the serving path).
double RunOnce(const std::string& xml, core::CancelToken* token,
               uint64_t* items_out) {
  auto query = core::StreamingQuery::Open(kQuery);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return -1.0;
  }
  if (token != nullptr) {
    token->Reset();
    token->SetDeadlineAfterMs(60'000);
    (*query)->set_cancel_token(token);
  }
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

// Mean of the fastest half (see ext_obs: preemption stalls only add
// time, so the fast tail of interleaved runs is the true cost floor).
double TrimmedMean(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  size_t keep = times.size() / 2;
  if (keep == 0) keep = 1;
  double total = 0.0;
  for (size_t i = 0; i < keep; ++i) total += times[i];
  return total / static_cast<double>(keep);
}

int CancellationOverhead(const std::string& xml, bool* within_bound) {
  std::printf("\n(a) Cancellation-check overhead on chunked DBLP (%s, %zuKB "
              "chunks)\n",
              FormatBytes(xml.size()).c_str(), kChunkBytes / 1024);
  constexpr int kEvalsPerVariant = 40;
  core::CancelToken token;
  uint64_t bare_items = 0;
  uint64_t guarded_items = 0;
  std::vector<double> bare_times;
  std::vector<double> guarded_times;
  for (int i = 0; i < kEvalsPerVariant; ++i) {
    double bare = RunOnce(xml, nullptr, &bare_items);
    double guarded = RunOnce(xml, &token, &guarded_items);
    if (bare < 0.0 || guarded < 0.0) return 1;
    bare_times.push_back(bare);
    guarded_times.push_back(guarded);
  }
  if (bare_items != guarded_items) {
    std::fprintf(stderr, "result mismatch: bare %llu vs guarded %llu\n",
                 static_cast<unsigned long long>(bare_items),
                 static_cast<unsigned long long>(guarded_items));
    return 1;
  }

  double bare_floor = TrimmedMean(bare_times);
  double guarded_floor = TrimmedMean(guarded_times);
  double overhead = guarded_floor / bare_floor - 1.0;
  if (overhead < 0.0) overhead = 0.0;  // noise floor: guarded won
  *within_bound = overhead <= kOverheadBound;

  TablePrinter table({"Variant", "Floor (ms)", "MB/s", "Items", "Overhead"});
  double mb = static_cast<double>(xml.size()) / (1024.0 * 1024.0);
  table.AddRow({"bare", FormatDouble(bare_floor * 1e3, 1),
                FormatDouble(mb / bare_floor, 1), std::to_string(bare_items),
                "-"});
  table.AddRow({"token + armed deadline",
                FormatDouble(guarded_floor * 1e3, 1),
                FormatDouble(mb / guarded_floor, 1),
                std::to_string(guarded_items),
                FormatDouble(overhead * 100.0, 2) + "%"});
  table.Print();
  std::printf("bound: <= %.0f%% -> %s\n", kOverheadBound * 100.0,
              *within_bound ? "PASS" : "FAIL");
  return 0;
}

// How many events pass between tripping the token and the engine
// noticing? The contract is within one sampling interval; the bound
// enforced here is 2x for slack on where inside the interval the trip
// lands.
int DetectionLatency(bool* within_bound) {
  std::printf("\n(b) Deadline detection latency at event granularity\n");
  auto query = core::StreamingQuery::Open("//a/text()");
  if (!query.ok()) return 1;
  core::CancelToken token;
  (*query)->set_cancel_token(&token);
  xml::SaxHandler* handler = (*query)->event_handler();
  handler->OnDocumentBegin();
  handler->OnBegin("r", {}, 1);

  // Warm pass: measure per-event cost with the token attached but
  // quiet, to convert the interval into wall-clock terms.
  constexpr int kWarmupEvents = 200'000;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kWarmupEvents / 2; ++i) {
    handler->OnBegin("a", {}, 2);
    handler->OnEnd("a", 2);
  }
  double ns_per_event = Seconds(start) * 1e9 / kWarmupEvents;
  if (!(*query)->engine_status().ok()) return 1;

  // Trip an (already expired) deadline mid-stream and count events
  // until the engine fails.
  token.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  int events_to_detect = 0;
  while ((*query)->engine_status().ok() && events_to_detect < 100'000) {
    handler->OnBegin("a", {}, 2);
    handler->OnEnd("a", 2);
    events_to_detect += 2;
  }
  Status status = (*query)->engine_status();
  const int interval = static_cast<int>(core::CancelToken::kCheckIntervalEvents);
  *within_bound = status.code() == StatusCode::kDeadlineExceeded &&
                  events_to_detect <= 2 * interval;

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"sampling interval (events)", std::to_string(interval)});
  table.AddRow({"events to detection", std::to_string(events_to_detect)});
  table.AddRow({"ns/event (token attached)", FormatDouble(ns_per_event, 1)});
  table.AddRow({"detection latency (us)",
                FormatDouble(events_to_detect * ns_per_event / 1e3, 2)});
  table.Print();
  std::printf("bound: <= 2x interval (%d events) -> %s\n", 2 * interval,
              *within_bound ? "PASS" : "FAIL");
  return 0;
}

int BitFlipRejection(bool* all_rejected) {
  std::printf("\n(c) Tape CRC32C single-bit-flip rejection sweep\n");
  std::string doc = datagen::GenerateDblp(64 * 1024, 7);
  Result<tape::Tape> tape = tape::RecordDocument(doc);
  if (!tape.ok()) return 1;
  const std::string image = tape->Serialize();
  size_t rejected = 0;
  const size_t total = image.size() * 8;
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      if (!tape::Tape::FromBytes(std::move(mutated), "flip").ok()) {
        ++rejected;
      }
    }
  }
  *all_rejected = rejected == total;
  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"tape image bytes", std::to_string(image.size())});
  table.AddRow({"single-bit flips tried", std::to_string(total)});
  table.AddRow({"rejected", std::to_string(rejected)});
  table.AddRow({"rejection rate",
                FormatDouble(100.0 * static_cast<double>(rejected) /
                                 static_cast<double>(total),
                             2) +
                    "%"});
  table.Print();
  std::printf("bound: 100%% -> %s\n", *all_rejected ? "PASS" : "FAIL");
  return 0;
}

int Main() {
  PrintHeader("Extension: resilience",
              "cancellation overhead + detection latency + corruption "
              "rejection");
  std::string xml = datagen::GenerateDblp(ScaledBytes(6u << 20), 1);

  bool overhead_ok = false;
  bool latency_ok = false;
  bool rejection_ok = false;
  if (CancellationOverhead(xml, &overhead_ok) != 0) return 1;
  if (DetectionLatency(&latency_ok) != 0) return 1;
  if (BitFlipRejection(&rejection_ok) != 0) return 1;

  std::printf(
      "\nExpected shape: the token poll (a null test per sampled event, a\n"
      "clock read per %u-event interval while a deadline is armed) stays\n"
      "within the %.0f%% bound; a tripped token is seen within 2x the\n"
      "interval; every single-bit tape corruption is rejected by CRC32C.\n",
      core::CancelToken::kCheckIntervalEvents, kOverheadBound * 100.0);
  return overhead_ok && latency_ok && rejection_ok ? 0 : 1;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
