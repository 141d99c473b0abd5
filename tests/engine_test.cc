#include "core/engine.h"

#include <gtest/gtest.h>

#include "xml/sax_parser.h"

namespace xsq::core {
namespace {

constexpr const char* kFig1 =
    "<root><pub>"
    "<book id=\"1\"><price>12.00</price><name>First</name>"
    "<author>A</author><price type=\"discount\">10.00</price></book>"
    "<book id=\"2\"><price>14.00</price><name>Second</name>"
    "<author>A</author><author>B</author>"
    "<price type=\"discount\">12.00</price></book>"
    "<year>2002</year>"
    "</pub></root>";

constexpr const char* kFig2 =
    "<root><pub>"
    "<book><name>X</name><author>A</author></book>"
    "<book><name>Y</name>"
    "<pub><book><name>Z</name><author>B</author></book>"
    "<year>1999</year></pub>"
    "</book>"
    "<year>2002</year>"
    "</pub></root>";

QueryResult RunQ(std::string_view query, std::string_view xml) {
  Result<QueryResult> result = RunQuery(query, xml);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  return result.ok() ? *std::move(result) : QueryResult{};
}

TEST(XsqEngineTest, PaperExample1BuffersUntilPredicatesResolve) {
  // The author A must be buffered until year=2002 arrives (Section 1).
  QueryResult r = RunQ("/root/pub[year=2002]/book[price<11]/author", kFig1);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "<author>A</author>");
}

TEST(XsqEngineTest, PaperExample1FailingOuterPredicateClearsAll) {
  QueryResult r = RunQ("/root/pub[year=1999]/book[price<11]/author", kFig1);
  EXPECT_TRUE(r.items.empty());
}

TEST(XsqEngineTest, PaperExample2RecursiveClosures) {
  // Three overlapping matches; only chains proving both predicates
  // true keep their items, without duplicates (Section 4.3).
  QueryResult r = RunQ("//pub[year=2002]//book[author]//name", kFig2);
  ASSERT_EQ(r.items.size(), 2u);
  EXPECT_EQ(r.items[0], "<name>X</name>");
  EXPECT_EQ(r.items[1], "<name>Z</name>");
}

TEST(XsqEngineTest, PaperExample2TextOutput) {
  QueryResult r = RunQ("//pub[year=2002]//book[author]//name/text()", kFig2);
  ASSERT_EQ(r.items.size(), 2u);
  EXPECT_EQ(r.items[0], "X");
  EXPECT_EQ(r.items[1], "Z");
}

TEST(XsqEngineTest, DuplicateAvoidanceWhenMultipleChainsSucceed) {
  // Both the outer and inner pub satisfy [year]; name matches via both
  // chains but must be output exactly once (end of Example 2).
  const char* doc =
      "<root><pub><year>2002</year>"
      "<pub><year>2001</year><name>N</name></pub>"
      "</pub></root>";
  QueryResult r = RunQ("//pub[year]//name/text()", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "N");
}

TEST(XsqEngineTest, PredicateSatisfiedAfterResultStreamsPast) {
  // The result text arrives before the predicate's deciding event.
  const char* doc = "<a><n>v</n><ok/></a>";
  QueryResult r = RunQ("/a[ok]/n/text()", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "v");
}

TEST(XsqEngineTest, PredicateFailsAtEndTagDiscardsBuffer) {
  QueryResult r = RunQ("/a[ok]/n/text()", "<a><n>v</n></a>");
  EXPECT_TRUE(r.items.empty());
}

TEST(XsqEngineTest, OwnPredicateOnOutputStep) {
  const char* doc = "<r><n><q/>keep</n><n>drop</n></r>";
  QueryResult r = RunQ("/r/n[q]/text()", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "keep");
}

TEST(XsqEngineTest, ExistentialChildPredicateOverManyChildren) {
  // Only when ALL price children fail does the book fail (Example 1).
  const char* doc =
      "<r><book><price>20</price><price>5</price><t>A</t></book>"
      "<book><price>20</price><t>B</t></book></r>";
  QueryResult r = RunQ("/r/book[price<11]/t/text()", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "A");
}

TEST(XsqEngineTest, AttributePredicateDecidedAtBegin) {
  const char* doc = "<r><a id=\"5\"><t>x</t></a><a id=\"9\"><t>y</t></a></r>";
  QueryResult r = RunQ("/r/a[@id<7]/t/text()", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "x");
}

TEST(XsqEngineTest, ChildAttributePredicate) {
  const char* doc =
      "<r><p><b id=\"3\"/><t>yes</t></p><p><b/><t>no</t></p></r>";
  QueryResult r = RunQ("/r/p[b@id]/t/text()", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "yes");
}

TEST(XsqEngineTest, MultiplePredicatesPerStepAreConjunctive) {
  const char* doc =
      "<r><a id=\"1\"><b/><t>both</t></a>"
      "<a id=\"1\"><t>attr-only</t></a>"
      "<a><b/><t>child-only</t></a></r>";
  QueryResult r = RunQ("/r/a[@id][b]/t/text()", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "both");
}

TEST(XsqEngineTest, WildcardSteps) {
  QueryResult r = RunQ("/r/*/t/text()", "<r><x><t>1</t></x><y><t>2</t></y></r>");
  ASSERT_EQ(r.items.size(), 2u);
}

TEST(XsqEngineTest, AttributeOutput) {
  QueryResult r =
      RunQ("//book/@id", "<r><book id=\"1\"/><book/><book id=\"2\"/></r>");
  ASSERT_EQ(r.items.size(), 2u);
  EXPECT_EQ(r.items[0], "1");
  EXPECT_EQ(r.items[1], "2");
}

TEST(XsqEngineTest, BufferedAttributeOutput) {
  // Attribute captured at begin but only released by a later predicate.
  const char* doc = "<r><a id=\"7\"><ok/></a><a id=\"8\"></a></r>";
  QueryResult r = RunQ("/r/a[ok]/@id", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "7");
}

TEST(XsqEngineTest, ElementOutputSerializesWholeSubtree) {
  const char* doc = "<r><a x=\"1\">t<b>u</b></a></r>";
  QueryResult r = RunQ("/r/a", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "<a x=\"1\">t<b>u</b></a>");
}

TEST(XsqEngineTest, NestedElementOutputInDocumentOrder) {
  QueryResult r = RunQ("//a", "<a>1<a>2</a></a>");
  ASSERT_EQ(r.items.size(), 2u);
  EXPECT_EQ(r.items[0], "<a>1<a>2</a></a>");
  EXPECT_EQ(r.items[1], "<a>2</a>");
}

TEST(XsqEngineTest, BufferedElementOutputWithLatePredicate) {
  const char* doc = "<r><p><a>keep</a><ok/></p><p><a>drop</a></p></r>";
  QueryResult r = RunQ("/r/p[ok]/a", doc);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "<a>keep</a>");
}

TEST(XsqEngineTest, MixedContentEmitsPerTextEvent) {
  QueryResult r = RunQ("/a/text()", "<a>x<b/>y</a>");
  ASSERT_EQ(r.items.size(), 2u);
  EXPECT_EQ(r.items[0], "x");
  EXPECT_EQ(r.items[1], "y");
}

TEST(XsqEngineTest, CountAggregation) {
  QueryResult r = RunQ("//book/name/count()", kFig2);
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_DOUBLE_EQ(*r.aggregate, 3.0);
}

TEST(XsqEngineTest, CountOnlyCountsChainsThatProvePredicates) {
  QueryResult r = RunQ("//pub[year=2002]//book[author]//name/count()", kFig2);
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_DOUBLE_EQ(*r.aggregate, 2.0);
}

TEST(XsqEngineTest, SumAggregation) {
  QueryResult r =
      RunQ("/r/x/sum()", "<r><x>1.5</x><x>skip</x><x>2</x></r>");
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_DOUBLE_EQ(*r.aggregate, 3.5);
}

TEST(XsqEngineTest, AggregateUpdatesStreamIncrementally) {
  // Section 4.4: stat.update emits a value per change, usable on
  // unbounded streams.
  Result<xpath::Query> query = xpath::ParseQuery("/r/x/count()");
  ASSERT_TRUE(query.ok());
  CollectingSink sink;
  auto engine = XsqEngine::Create(*query, &sink);
  ASSERT_TRUE(engine.ok());
  xml::SaxParser parser(engine->get());
  ASSERT_TRUE(parser.Parse("<r><x/><y/><x/><x/></r>").ok());
  ASSERT_EQ(sink.aggregate_updates.size(), 3u);
  EXPECT_DOUBLE_EQ(sink.aggregate_updates[0], 1.0);
  EXPECT_DOUBLE_EQ(sink.aggregate_updates[1], 2.0);
  EXPECT_DOUBLE_EQ(sink.aggregate_updates[2], 3.0);
  ASSERT_TRUE(sink.aggregate.has_value());
  EXPECT_DOUBLE_EQ(*sink.aggregate, 3.0);
}

TEST(XsqEngineTest, AvgMinMaxAggregations) {
  const char* doc = "<r><x>2</x><x>4</x><x>9</x></r>";
  EXPECT_DOUBLE_EQ(*RunQ("/r/x/avg()", doc).aggregate, 5.0);
  EXPECT_DOUBLE_EQ(*RunQ("/r/x/min()", doc).aggregate, 2.0);
  EXPECT_DOUBLE_EQ(*RunQ("/r/x/max()", doc).aggregate, 9.0);
}

TEST(XsqEngineTest, DeeplyRecursiveClosureData) {
  // 30 nested a's: //a//a matches every a except the outermost once.
  std::string doc;
  const int depth = 30;
  for (int i = 0; i < depth; ++i) doc += "<a>";
  for (int i = 0; i < depth; ++i) doc += "</a>";
  QueryResult r = RunQ("//a//a/count()", doc);
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_DOUBLE_EQ(*r.aggregate, depth - 1.0);
}

TEST(XsqEngineTest, ClosureIsStrictDescendant) {
  QueryResult r = RunQ("//a//a", "<a><a/></a>");
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "<a></a>");
}

TEST(XsqEngineTest, DocumentOrderPreservedAcrossLateSelection) {
  // Both items pend on different books; earlier item resolves later.
  const char* doc =
      "<r><b><t>first</t><ok/></b><b><t>second</t><ok/></b></r>";
  QueryResult r = RunQ("/r/b[ok]/t/text()", doc);
  ASSERT_EQ(r.items.size(), 2u);
  EXPECT_EQ(r.items[0], "first");
  EXPECT_EQ(r.items[1], "second");
}

TEST(XsqEngineTest, StatsTrackMatchesAndItems) {
  Result<xpath::Query> query = xpath::ParseQuery("//a/text()");
  ASSERT_TRUE(query.ok());
  CollectingSink sink;
  auto engine = XsqEngine::Create(*query, &sink);
  ASSERT_TRUE(engine.ok());
  xml::SaxParser parser(engine->get());
  ASSERT_TRUE(parser.Parse("<a>1<a>2</a></a>").ok());
  ASSERT_TRUE((*engine)->status().ok());
  EXPECT_GE((*engine)->stats().matches_created, 2u);
  EXPECT_EQ((*engine)->items_emitted(), 2u);  // "1" and "2"
}

TEST(XsqEngineTest, MemoryReleasedAfterRun) {
  Result<xpath::Query> query = xpath::ParseQuery("/r/a[z]/t/text()");
  ASSERT_TRUE(query.ok());
  CollectingSink sink;
  auto engine = XsqEngine::Create(*query, &sink);
  ASSERT_TRUE(engine.ok());
  xml::SaxParser parser(engine->get());
  ASSERT_TRUE(parser.Parse("<r><a><t>buffered</t></a></r>").ok());
  EXPECT_GT((*engine)->memory().peak_bytes(), 0u);
  EXPECT_EQ((*engine)->memory().current_bytes(), 0u);
}

TEST(XsqEngineTest, PeakMemoryBoundedByBufferedDataNotDocument) {
  // Long stretches of irrelevant data must not be buffered.
  std::string doc = "<r><a><ok/><t>x</t>";
  for (int i = 0; i < 1000; ++i) doc += "<junk>filler filler</junk>";
  doc += "</a></r>";
  Result<xpath::Query> query = xpath::ParseQuery("/r/a[ok]/t/text()");
  ASSERT_TRUE(query.ok());
  CollectingSink sink;
  auto engine = XsqEngine::Create(*query, &sink);
  ASSERT_TRUE(engine.ok());
  xml::SaxParser parser(engine->get());
  ASSERT_TRUE(parser.Parse(doc).ok());
  EXPECT_LT((*engine)->memory().peak_bytes(), 100u);
  ASSERT_EQ(sink.items.size(), 1u);
}

TEST(XsqEngineTest, ReusableAcrossDocuments) {
  Result<xpath::Query> query = xpath::ParseQuery("//a/text()");
  ASSERT_TRUE(query.ok());
  CollectingSink sink;
  auto engine = XsqEngine::Create(*query, &sink);
  ASSERT_TRUE(engine.ok());
  for (const char* doc : {"<r><a>1</a></r>", "<r><a>2</a></r>"}) {
    xml::SaxParser parser(engine->get());
    ASSERT_TRUE(parser.Parse(doc).ok());
    ASSERT_TRUE((*engine)->status().ok());
  }
  ASSERT_EQ(sink.items.size(), 2u);
  EXPECT_EQ(sink.items[1], "2");
}

TEST(XsqEngineTest, EmptyResultOnNonMatchingDocument) {
  QueryResult r = RunQ("//nosuch/text()", kFig1);
  EXPECT_TRUE(r.items.empty());
}

TEST(XsqEngineTest, EscapedContentRoundTrips) {
  QueryResult r = RunQ("//a", "<r><a m=\"x&amp;y\">1 &lt; 2</a></r>");
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "<a m=\"x&amp;y\">1 &lt; 2</a>");
}

}  // namespace
}  // namespace xsq::core
