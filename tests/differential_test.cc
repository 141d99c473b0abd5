// Differential property tests: every streaming engine must agree with
// the DOM oracle (dom::Evaluate) on randomized documents and queries.
// This is the strongest correctness evidence in the suite - the random
// pools are deliberately tiny so documents are deeply recursive and
// queries with closures produce many overlapping match chains (the hard
// cases of paper Examples 1 and 2).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/engine_nc.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "dom/builder.h"
#include "dom/evaluator.h"
#include "lazydfa/lazy_dfa_engine.h"
#include "naive/naive_engine.h"
#include "test_util.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"
#include "xsm/xsm_engine.h"

namespace xsq {
namespace {

// One streaming engine under test: its factory, the queries it must
// accept (a factory that rejects one of them fails the test; others it
// may reject), and whether its accounted memory is buffered items only,
// so all of it must be released by the end of the document.
struct EngineRow {
  const char* name;
  core::EngineFactory factory;
  bool (*must_accept)(const xpath::Query& query);
  bool memory_is_buffers;
};

bool Everything(const xpath::Query& /*query*/) { return true; }
bool ClosureFree(const xpath::Query& query) { return !query.HasClosure(); }
bool PredicateFreePaths(const xpath::Query& query) {
  return !query.HasPredicates() && !xpath::IsAggregation(query.output.kind);
}

const EngineRow kEngines[] = {
    {"XSQ-F", &core::CreateEngine<core::XsqEngine>, &Everything, true},
    {"XSQ-NC", &core::CreateEngine<core::XsqNcEngine>, &ClosureFree, true},
    {"naive", &core::CreateEngine<naive::NaiveEngine>, &Everything, true},
    // The lazy DFA's memory is its automaton, which persists.
    {"lazy-DFA", &core::CreateEngine<lazydfa::LazyDfaEngine>,
     &PredicateFreePaths, false},
    {"XSM", &core::CreateEngine<xsm::XsmEngine>, &ClosureFree, true},
};

void ExpectAgreesWithOracle(const std::string& query_text,
                            const std::string& xml) {
  Result<xpath::Query> query = xpath::ParseQuery(query_text);
  ASSERT_TRUE(query.ok()) << query_text;

  Result<dom::Document> doc = dom::BuildFromString(xml);
  ASSERT_TRUE(doc.ok()) << xml;
  Result<dom::EvalResult> oracle = dom::Evaluate(*doc, *query);
  ASSERT_TRUE(oracle.ok());

  for (const EngineRow& row : kEngines) {
    SCOPED_TRACE(std::string(row.name) + "\nquery: " + query_text +
                 "\ndoc: " + xml);
    core::CollectingSink sink;
    auto engine = row.factory(*query, &sink);
    if (!engine.ok()) {
      EXPECT_FALSE(row.must_accept(*query)) << engine.status().ToString();
      continue;
    }
    xml::SaxParser parser(engine->get());
    ASSERT_TRUE(parser.Parse(xml).ok());
    ASSERT_TRUE((*engine)->status().ok()) << (*engine)->status().ToString();
    EXPECT_EQ(sink.items, oracle->items);
    EXPECT_EQ(sink.aggregate.has_value(), oracle->aggregate.has_value());
    if (sink.aggregate.has_value() && oracle->aggregate.has_value()) {
      EXPECT_DOUBLE_EQ(*sink.aggregate, *oracle->aggregate);
    }
    if (row.memory_is_buffers) {
      EXPECT_EQ((*engine)->memory().current_bytes(), 0u)
          << "buffer not drained";
    }
  }
}

class RandomDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDifferentialTest, EnginesMatchOracle) {
  const uint64_t seed = GetParam();
  // Several query/document pairings per seed.
  for (uint64_t i = 0; i < 4; ++i) {
    const std::string doc = testutil::RandomDocument(seed * 41 + i);
    const std::string query = testutil::RandomQuery(seed * 97 + i * 13);
    ExpectAgreesWithOracle(query, doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{60}));

class DeepRecursionDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeepRecursionDifferentialTest, ClosureHeavyQueriesOnDeepDocs) {
  const uint64_t seed = GetParam();
  testutil::RandomDocOptions options;
  options.max_depth = 12;
  options.max_children = 3;
  options.tags = {"a", "b"};  // maximal tag collisions -> many chains
  const std::string doc = testutil::RandomDocument(seed + 1000, options);
  const char* queries[] = {
      "//a//a",          "//a//b//a/text()", "//a[b]//a/text()",
      "//a[@id]//b",     "//b[a]//a/count()", "//a//a//a//a/count()",
      "//a[text()]//b/text()", "//*//a/sum()",
  };
  for (const char* query : queries) {
    ExpectAgreesWithOracle(query, doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepRecursionDifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

// Hand-picked regression documents exercising specific orderings.
TEST(DirectedDifferentialTest, PredicateAfterResult) {
  ExpectAgreesWithOracle("//a[b]//c/text()",
                         "<r><a><c>1</c><b/><c>2</c></a></r>");
}

TEST(DirectedDifferentialTest, SiblingRecursionWithSharedTags) {
  ExpectAgreesWithOracle(
      "//a[b=1]//b/text()",
      "<a><b>0</b><a><b>1</b></a><b>1</b><a><b>2</b></a></a>");
}

TEST(DirectedDifferentialTest, WildcardsEverywhere) {
  ExpectAgreesWithOracle("//*[*]/*/text()",
                         "<r><a><b>x</b></a><c>y</c></r>");
}

TEST(DirectedDifferentialTest, AggregateOverRecursiveMatches) {
  ExpectAgreesWithOracle("//a//a/sum()",
                         "<a>1<a>2<a>3</a></a><a>4</a></a>");
}

TEST(DirectedDifferentialTest, AttributeOutputWithClosure) {
  ExpectAgreesWithOracle(
      "//a[b]//c/@id",
      "<r><a><b/><c id=\"1\"/><a><c id=\"2\"/><b/></a></a></r>");
}

TEST(DirectedDifferentialTest, ElementOutputNestedMatches) {
  ExpectAgreesWithOracle("//a[@x]",
                         "<a x=\"1\"><a><a x=\"2\">t</a></a></a>");
}

}  // namespace
}  // namespace xsq
