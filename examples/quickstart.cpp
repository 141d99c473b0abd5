// Quickstart: evaluate an XPath query over streaming XML with XSQ++.
//
// Build:  cmake --build build --target quickstart
// Run:    ./build/examples/quickstart
#include <cstdio>

#include "core/engine.h"
#include "core/result_sink.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace {

// A sink that prints results as soon as the engine can prove membership.
class PrintingSink : public xsq::core::ResultSink {
 public:
  void OnItem(std::string_view value) override {
    std::printf("  result: %.*s\n", static_cast<int>(value.size()),
                value.data());
  }
};

}  // namespace

int main() {
  // 1. Parse the query. The grammar covers the paper's XPath subset:
  //    child (/) and closure (//) axes, the five predicate categories,
  //    and text()/@attr/aggregation outputs.
  const char* query_text = "//book[price<20]/title/text()";
  xsq::Result<xsq::xpath::Query> query = xsq::xpath::ParseQuery(query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "bad query: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n", query->ToString().c_str());

  // 2. Create the streaming engine (XSQ-F handles every query; use
  //    XsqNcEngine for closure-free queries when throughput matters).
  PrintingSink sink;
  auto engine = xsq::core::XsqEngine::Create(*query, &sink);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  // 3. Stream the document. Feed accepts arbitrary chunk boundaries, so
  //    this works over sockets, pipes, or files of any size. Note that
  //    the first book's title is buffered: its price arrives only later,
  //    so membership cannot be decided when the title streams past.
  const char* chunks[] = {
      "<catalog><book><title>Str",          // chunks may split anywhere
      "eaming XML</title><price>18.00</price></book>",
      "<book><title>Expensive Tome</title><price>95.00</price></book>",
      "<book><title>Cheap Thrills</title><price>5.99</price></book>",
      "</catalog>",
  };
  xsq::xml::SaxParser parser(engine->get());
  for (const char* chunk : chunks) {
    xsq::Status status = parser.Feed(chunk);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  xsq::Status status = parser.Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("matches created: %llu, items emitted: %llu\n",
              static_cast<unsigned long long>(
                  (*engine)->stats().matches_created),
              static_cast<unsigned long long>((*engine)->items_emitted()));
  std::printf("peak buffered bytes: %zu\n",
              (*engine)->memory().peak_bytes());
  return 0;
}
