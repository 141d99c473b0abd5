// Extension experiment: the concurrent query-service layer.
//
// Two questions a server operator asks:
//   1. How does aggregate throughput scale with the worker pool when
//      many sessions stream documents concurrently?
//   2. How much does the plan cache buy on open-heavy workloads
//      (sessions are short, queries repeat)?
//
// Note: scaling beyond 1x requires real cores; on a single-CPU host the
// worker columns collapse to ~1x and only the cache table is
// meaningful.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/timing.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "service/query_service.h"

namespace xsq::bench {
namespace {

using service::QueryService;
using service::ServiceConfig;
using service::SessionId;

const char* kQueries[] = {
    "//book[price<20]/title/text()",
    "/dblp/article/title/text()",
    "//inproceedings[year>1995]/author/text()",
    "/dblp/article[author]/year/text()",
};

// Streams `docs` through `sessions_per_client` sessions per client
// thread; returns wall seconds.
double RunWorkload(int workers, int clients,
                   const std::vector<std::string>& docs) {
  ServiceConfig config;
  config.num_workers = workers;
  config.max_sessions = 1024;
  config.max_queued_chunks_per_session = 32;
  QueryService service(config);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&service, &docs, c] {
      for (size_t d = static_cast<size_t>(c); d < docs.size();
           d += 4 /* clients */) {
        auto id = service.OpenSession(
            kQueries[(c + static_cast<int>(d)) % 4]);
        if (!id.ok()) return;
        const std::string& doc = docs[d];
        constexpr size_t kChunk = 64 * 1024;
        for (size_t pos = 0; pos < doc.size(); pos += kChunk) {
          Status status;
          do {
            status = service.Push(*id, doc.substr(pos, kChunk));
          } while (status.code() == StatusCode::kResourceExhausted);
          if (!status.ok()) return;
        }
        service.Close(*id);
        service.Drain(*id);
        service.Release(*id);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  double seconds = Seconds(start);
  service.Shutdown();
  return seconds;
}

int Main() {
  PrintHeader("Extension: query service",
              "worker-pool scaling and plan-cache sensitivity");

  const size_t doc_bytes = ScaledBytes(192 * 1024);
  std::vector<std::string> docs;
  size_t total_bytes = 0;
  for (uint64_t i = 0; i < 16; ++i) {
    docs.push_back(datagen::GenerateDblp(doc_bytes, i));
    total_bytes += docs.back().size();
  }
  std::printf("%zu documents, %s total, 4 client threads\n", docs.size(),
              FormatBytes(total_bytes).c_str());

  TablePrinter scaling({"Workers", "Seconds", "MB/s", "Speedup vs 1"});
  double base_seconds = 0;
  for (int workers : {1, 2, 4, 8}) {
    // Warm-up + best-of-2 to steady the numbers.
    double seconds = RunWorkload(workers, 4, docs);
    double again = RunWorkload(workers, 4, docs);
    if (again < seconds) seconds = again;
    if (workers == 1) base_seconds = seconds;
    scaling.AddRow({std::to_string(workers), FormatDouble(seconds, 3),
                    FormatDouble(static_cast<double>(total_bytes) /
                                     (1024.0 * 1024.0) / seconds, 1),
                    FormatDouble(base_seconds / seconds, 2)});
  }
  scaling.Print();
  std::printf(
      "\nExpected shape: near-linear speedup while workers <= cores\n"
      "(hardware here: %u); flat on a single-CPU host.\n\n",
      std::thread::hardware_concurrency());

  // Plan-cache sensitivity: many short sessions over 4 distinct
  // queries. Capacity 4 serves every open after the first four from
  // cache; capacity 1 thrashes and recompiles almost every open.
  TablePrinter cache_table(
      {"Cache capacity", "Opens/s", "Hit rate", "Compiles"});
  const std::string small_doc = datagen::GenerateDblp(2048, 99);
  for (size_t capacity : {1, 2, 4}) {
    ServiceConfig config;
    config.num_workers = 2;
    config.plan_cache_capacity = capacity;
    QueryService service(config);
    const int opens = static_cast<int>(400 * BenchScale());
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < opens; ++i) {
      auto id = service.OpenSession(kQueries[i % 4]);
      if (!id.ok()) return 1;
      if (!service.Push(*id, small_doc).ok()) return 1;
      service.Close(*id);
      service.Release(*id);
    }
    double seconds = Seconds(start);
    service::StatsSnapshot snap = service.stats();
    double hit_rate =
        static_cast<double>(snap.plan_cache_hits) /
        static_cast<double>(snap.plan_cache_hits + snap.plan_cache_misses);
    cache_table.AddRow(
        {std::to_string(capacity),
         FormatDouble(static_cast<double>(opens) / seconds, 0),
         FormatDouble(hit_rate, 3),
         std::to_string(snap.plan_cache_misses)});
    service.Shutdown();
  }
  cache_table.Print();
  std::printf(
      "\nExpected shape: hit rate ~0 at capacity 1 (LRU thrash over 4\n"
      "round-robin queries), ~1.0 at capacity 4, with opens/s rising as\n"
      "compilation leaves the hot path.\n");
  return 0;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
