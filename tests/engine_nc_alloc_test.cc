// Heap traffic of XSQ-NC per match. The engine's per-match item lives
// in its queue by value, so a steady-state document allocates only the
// queue's occasional block, not one heap object per match. This binary
// replaces the global operator new to count calls, which is why it is a
// test executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>

#include "core/engine_nc.h"
#include "core/result_sink.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace xsq::core {
namespace {

// Counts results without storing them, so the sink adds no heap
// traffic of its own.
class CountingSink : public ResultSink {
 public:
  void OnItem(std::string_view) override { ++items; }
  uint64_t items = 0;
};

// Heap allocations per match of `query_text` over a document of
// `matches` short <a> elements, measured on the second of two parses
// so buffers sized by the first are reused.
double AllocationsPerMatch(std::string_view query_text, int matches) {
  std::string xml = "<r>";
  for (int i = 0; i < matches; ++i) {
    xml += "<a>v" + std::to_string(i % 1000) + "</a>";
  }
  xml += "</r>";
  Result<xpath::Query> query = xpath::ParseQuery(query_text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  CountingSink sink;
  auto engine = XsqNcEngine::Create(*query, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  xml::SaxParser parser(engine->get());
  EXPECT_TRUE(parser.Parse(xml).ok());
  parser.Reset();
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(parser.Parse(xml).ok());
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE((*engine)->status().ok()) << (*engine)->status().ToString();
  return static_cast<double>(after - before) / matches;
}

TEST(XsqNcAllocationTest, ItemsDoNotAllocateOneHeapObjectPerMatch) {
  constexpr int kMatches = 4000;
  for (const char* query : {"/r/a/count()", "/r/a/text()"}) {
    EXPECT_LT(AllocationsPerMatch(query, kMatches), 0.1) << query;
  }
}

}  // namespace
}  // namespace xsq::core
