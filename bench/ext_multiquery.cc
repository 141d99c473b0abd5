// Extension experiment (paper Section 5): grouping many HPDTs over one
// parse. The paper argues XSQ's regular HPDT structure allows multiple
// queries to be grouped YFilter-style; this harness publishes one
// document to N subscriptions of a pubsub::SubscriptionRegistry (one
// parse, a shared filter NFA, one tape replay to the predicate-bearing
// survivors) and compares it against N independent StreamingQuery
// passes. Exits 1 if a pass fails or the two disagree on item counts.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/timing.h"
#include "core/streaming_query.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "pubsub/subscription_registry.h"

namespace xsq::bench {
namespace {

std::vector<std::string> MakeQueries(int n) {
  // A mix of workloads over the DBLP corpus, cycled to reach n.
  const char* base[] = {
      "/dblp/article/title/text()",
      "/dblp/inproceedings[author]/title/text()",
      "//inproceedings/booktitle/text()",
      "/dblp/article[year>1995]/author/text()",
      "//article/year/count()",
      "/dblp/*/pages/text()",
      "//inproceedings[@key]/year/text()",
      "/dblp/article/journal/text()",
  };
  std::vector<std::string> queries;
  for (int i = 0; i < n; ++i) {
    queries.emplace_back(base[static_cast<size_t>(i) % std::size(base)]);
  }
  return queries;
}

int Main() {
  PrintHeader("Extension: multi-query grouping",
              "one shared parse vs N separate passes (Section 5)");
  const std::string xml = datagen::GenerateDblp(ScaledBytes(6u << 20), 1);

  TablePrinter table({"Queries", "Separate (ms)", "Shared (ms)", "Speedup",
                      "Shared MB/s"});
  for (int n : {1, 2, 4, 8, 16, 32}) {
    std::vector<std::string> queries = MakeQueries(n);

    // N separate passes.
    auto separate_start = std::chrono::steady_clock::now();
    size_t separate_items = 0;
    for (const std::string& query : queries) {
      auto engine = core::StreamingQuery::Open(query);
      if (!engine.ok() || !(*engine)->Push(xml).ok() ||
          !(*engine)->Close().ok()) {
        return 1;
      }
      while ((*engine)->NextItem()) ++separate_items;
    }
    double separate = Seconds(separate_start);

    // One shared pass.
    pubsub::SubscriptionRegistry registry;
    for (const std::string& query : queries) {
      if (!registry.Subscribe(query).ok()) return 1;
    }
    auto shared_start = std::chrono::steady_clock::now();
    auto outcome = registry.Publish(xml);
    double shared = Seconds(shared_start);
    if (!outcome.ok() || outcome->failed_evaluations != 0) return 1;
    size_t shared_items = 0;
    for (const pubsub::Delivery& delivery : outcome->deliveries) {
      shared_items += delivery.items.size();
    }
    if (shared_items != separate_items) {
      std::fprintf(stderr, "%d queries: shared %zu items, separate %zu\n", n,
                   shared_items, separate_items);
      return 1;
    }

    double mbps =
        static_cast<double>(xml.size()) / (1024.0 * 1024.0) / shared;
    table.AddRow({std::to_string(n), FormatDouble(separate * 1e3, 1),
                  FormatDouble(shared * 1e3, 1),
                  FormatDouble(separate / shared, 2),
                  FormatDouble(mbps, 1)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: the shared pass amortizes parsing, so speedup\n"
      "grows with the query count and approaches the ratio of parse\n"
      "cost to per-query automaton cost.\n");
  return 0;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
