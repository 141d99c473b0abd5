// Extension experiment (paper Section 5): grouping many HPDTs over one
// parse. The paper argues XSQ's regular HPDT structure allows multiple
// queries to be grouped YFilter-style; this harness quantifies the
// first-order effect - sharing the SAX parse - by comparing N queries
// run through one MultiQueryEngine pass against N independent passes.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util/timing.h"
#include "core/multi_query.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "xml/sax_parser.h"

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
    for (const std::string& query : queries) {
      core::CountingSink sink;
      auto parsed = xpath::ParseQuery(query);
      if (!parsed.ok()) return 1;
      auto engine = core::XsqEngine::Create(*parsed, &sink);
      if (!engine.ok()) return 1;
      xml::SaxParser parser(engine->get());
      if (!parser.Parse(xml).ok()) return 1;
    }
    double separate = Seconds(separate_start);

    // One shared pass.
    std::vector<core::CountingSink> sinks(static_cast<size_t>(n));
    core::MultiQueryEngine multi;
    for (int i = 0; i < n; ++i) {
      if (!multi.AddQuery(queries[static_cast<size_t>(i)],
                          &sinks[static_cast<size_t>(i)])
               .ok()) {
        return 1;
      }
    }
    auto shared_start = std::chrono::steady_clock::now();
    xml::SaxParser parser(&multi);
    if (!parser.Parse(xml).ok()) return 1;
    double shared = Seconds(shared_start);

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
