#include "core/streaming_query.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>

#include "common/strings.h"
#include "core/engine.h"
#include "test_util.h"

namespace xsq::core {
namespace {

TEST(StreamingQueryTest, PushPullBasics) {
  auto query = StreamingQuery::Open("//book[price<20]/title/text()");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE((*query)
                  ->Push("<catalog><book><title>A</title>"
                         "<price>10</price></book>")
                  .ok());
  // Item available before the document ends.
  std::optional<std::string> item = (*query)->NextItem();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, "A");
  EXPECT_FALSE((*query)->NextItem().has_value());
  ASSERT_TRUE((*query)
                  ->Push("<book><title>B</title><price>99</price></book>"
                         "</catalog>")
                  .ok());
  ASSERT_TRUE((*query)->Close().ok());
  EXPECT_FALSE((*query)->NextItem().has_value());  // B was too expensive
}

TEST(StreamingQueryTest, PicksDeterministicEngineWhenPossible) {
  auto nc = StreamingQuery::Open("/a/b/text()");
  ASSERT_TRUE(nc.ok());
  EXPECT_TRUE((*nc)->uses_deterministic_engine());
  auto f = StreamingQuery::Open("//a/b/text()");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE((*f)->uses_deterministic_engine());
  auto u = StreamingQuery::Open("/a/b/text() | /a/c/text()");
  ASSERT_TRUE(u.ok());
  EXPECT_FALSE((*u)->uses_deterministic_engine());
}

TEST(StreamingQueryTest, AggregationExposesRunningAndFinalValues) {
  auto query = StreamingQuery::Open("/r/x/sum()");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Push("<r><x>1</x>").ok());
  ASSERT_TRUE((*query)->current_aggregate().has_value());
  EXPECT_DOUBLE_EQ(*(*query)->current_aggregate(), 1.0);
  ASSERT_TRUE((*query)->Push("<x>2.5</x></r>").ok());
  EXPECT_DOUBLE_EQ(*(*query)->current_aggregate(), 3.5);
  ASSERT_TRUE((*query)->Close().ok());
  ASSERT_TRUE((*query)->final_aggregate().has_value());
  EXPECT_DOUBLE_EQ(*(*query)->final_aggregate(), 3.5);
}

// Heap bytes allocated through malloc and not yet freed.
size_t LiveHeapBytes() {
  struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(StreamingQueryTest, RunningAggregateHoldsOneValueNotOnePerMatch) {
  // About 2 000 000 matches of a running count, pushed in 64 KiB
  // chunks. Keeping every running value would hold 8 bytes per match
  // (16 MB) until the document ends; the query keeps the latest.
  const std::string element = "<a>1</a>";
  std::string chunk;
  while (chunk.size() < (64u << 10)) chunk += element;
  const size_t per_chunk = chunk.size() / element.size();
  const size_t chunks = 2000000 / per_chunk;
  auto query = StreamingQuery::Open("/r/a/count()");
  ASSERT_TRUE(query.ok());
  const size_t before = LiveHeapBytes();
  ASSERT_TRUE((*query)->Push("<r>").ok());
  for (size_t i = 0; i < chunks; ++i) {
    ASSERT_TRUE((*query)->Push(chunk).ok());
  }
  // Measured while the document is still open, before Close or Reset
  // could release anything.
  const size_t after = LiveHeapBytes();
  EXPECT_LT(after - std::min(after, before), size_t{8} << 20)
      << "bytes of heap growth";
  ASSERT_TRUE((*query)->Push("</r>").ok());
  ASSERT_TRUE((*query)->Close().ok());
  ASSERT_TRUE((*query)->final_aggregate().has_value());
  EXPECT_DOUBLE_EQ(*(*query)->final_aggregate(),
                   static_cast<double>(chunks * per_chunk));
  EXPECT_DOUBLE_EQ(*(*query)->current_aggregate(),
                   static_cast<double>(chunks * per_chunk));
}

TEST(StreamingQueryTest, ErrorsSurfaceFromParserAndParserReuseBlocked) {
  auto query = StreamingQuery::Open("//a/text()");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE((*query)->Push("<a><b></a>").ok());
  auto bad = StreamingQuery::Open("not a query");
  EXPECT_FALSE(bad.ok());
}

TEST(StreamingQueryTest, CloseIsIdempotent) {
  auto query = StreamingQuery::Open("//a/text()");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Push("<a>x</a>").ok());
  ASSERT_TRUE((*query)->Close().ok());
  ASSERT_TRUE((*query)->Close().ok());
  EXPECT_FALSE((*query)->Push("<more/>").ok());
}

TEST(StreamingQueryTest, PeakBufferReflectsEngineAccounting) {
  auto query = StreamingQuery::Open("/r/a[late]/t/text()");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Push("<r><a><t>buffered content</t>").ok());
  EXPECT_GT((*query)->peak_buffered_bytes(), 0u);
  ASSERT_TRUE((*query)->Push("</a></r>").ok());
  ASSERT_TRUE((*query)->Close().ok());
  EXPECT_FALSE((*query)->NextItem().has_value());  // [late] never held
}

// One compiled query replayed over two documents must match two fresh
// queries, on both engines (NC and F) and after error states.
TEST(StreamingQueryTest, ResetReplaysOnNewDocument) {
  const char* queries[] = {"/catalog/book[price<20]/title/text()",  // XSQ-NC
                           "//book[price<20]/title/text()"};        // XSQ-F
  const std::string docs[] = {
      "<catalog><book><title>A</title><price>10</price></book>"
      "<book><title>B</title><price>99</price></book></catalog>",
      "<catalog><book><title>C</title><price>1</price></book></catalog>"};
  for (const char* query_text : queries) {
    auto reused = StreamingQuery::Open(query_text);
    ASSERT_TRUE(reused.ok());
    for (const std::string& doc : docs) {
      auto fresh = StreamingQuery::Open(query_text);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE((*fresh)->Push(doc).ok());
      ASSERT_TRUE((*fresh)->Close().ok());
      ASSERT_TRUE((*reused)->Push(doc).ok());
      ASSERT_TRUE((*reused)->Close().ok());
      while (auto expected = (*fresh)->NextItem()) {
        auto actual = (*reused)->NextItem();
        ASSERT_TRUE(actual.has_value());
        EXPECT_EQ(*actual, *expected) << query_text;
      }
      EXPECT_FALSE((*reused)->NextItem().has_value());
      (*reused)->Reset();
    }
  }
}

TEST(StreamingQueryTest, ResetClearsErrorAndAggregateState) {
  auto query = StreamingQuery::Open("/r/x/sum()");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE((*query)->Push("<r><x>1</x><bad").ok() &&
               (*query)->Close().ok());
  (*query)->Reset();
  EXPECT_FALSE((*query)->current_aggregate().has_value());
  ASSERT_TRUE((*query)->Push("<r><x>4</x></r>").ok());
  ASSERT_TRUE((*query)->Close().ok());
  EXPECT_DOUBLE_EQ((*query)->final_aggregate().value(), 4.0);
}

TEST(StreamingQueryTest, OpenFromSharedPlanMatchesTextOpen) {
  auto plan = CompilePlan("//book/title/text()");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE((*plan)->deterministic);
  auto a = StreamingQuery::Open(*plan);
  auto b = StreamingQuery::Open(*plan);  // same plan, two engines
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string doc = "<l><book><title>T</title></book></l>";
  ASSERT_TRUE((*a)->Push(doc).ok());
  ASSERT_TRUE((*b)->Push(doc).ok());
  ASSERT_TRUE((*a)->Close().ok());
  ASSERT_TRUE((*b)->Close().ok());
  EXPECT_EQ((*a)->NextItem().value_or(""), "T");
  EXPECT_EQ((*b)->NextItem().value_or(""), "T");
}

class StreamingQueryChunkingTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(StreamingQueryChunkingTest, ResultsIndependentOfChunking) {
  const uint64_t seed = GetParam();
  const std::string doc = testutil::RandomDocument(seed + 3000);
  const std::string query_text = testutil::RandomQuery(seed * 3 + 1);

  Result<QueryResult> whole = RunQuery(query_text, doc);
  ASSERT_TRUE(whole.ok());

  auto query = StreamingQuery::Open(query_text);
  ASSERT_TRUE(query.ok());
  SplitMix64 rng(seed);
  size_t pos = 0;
  std::vector<std::string> items;
  while (pos < doc.size()) {
    size_t len = 1 + rng.Below(23);
    len = std::min(len, doc.size() - pos);
    ASSERT_TRUE((*query)->Push(std::string_view(doc).substr(pos, len)).ok());
    while (auto item = (*query)->NextItem()) items.push_back(*item);
    pos += len;
  }
  ASSERT_TRUE((*query)->Close().ok());
  while (auto item = (*query)->NextItem()) items.push_back(*item);
  EXPECT_EQ(items, whole->items) << query_text << "\n" << doc;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingQueryChunkingTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace xsq::core
