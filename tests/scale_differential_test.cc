// Differential testing at corpus scale: ~100KB generated documents
// (recursive generic trees and the Figure 20 pub corpus) against the
// DOM oracle, for XSQ-F, union queries, and aggregations. Complements
// the small randomized suite with realistic element counts.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "dom/builder.h"
#include "dom/evaluator.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace xsq {
namespace {

void ExpectMatchesOracle(const std::string& query_text,
                         const std::string& xml) {
  Result<xpath::Query> query = xpath::ParseQuery(query_text);
  ASSERT_TRUE(query.ok()) << query_text;
  Result<dom::Document> document = dom::BuildFromString(xml);
  ASSERT_TRUE(document.ok());
  Result<dom::EvalResult> oracle = dom::Evaluate(*document, *query);
  ASSERT_TRUE(oracle.ok());

  core::CollectingSink sink;
  auto engine = core::XsqEngine::Create(*query, &sink);
  ASSERT_TRUE(engine.ok());
  xml::SaxParser parser(engine->get());
  ASSERT_TRUE(parser.Parse(xml).ok());
  ASSERT_TRUE((*engine)->status().ok()) << query_text;
  EXPECT_EQ(sink.items.size(), oracle->items.size()) << query_text;
  EXPECT_EQ(sink.items, oracle->items) << query_text;
  EXPECT_EQ(sink.aggregate.has_value(), oracle->aggregate.has_value())
      << query_text;
  if (sink.aggregate.has_value() && oracle->aggregate.has_value()) {
    EXPECT_DOUBLE_EQ(*sink.aggregate, *oracle->aggregate) << query_text;
  }
  EXPECT_EQ((*engine)->memory().current_bytes(), 0u) << query_text;
}

class ScaleDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScaleDifferentialTest, RecursivePubCorpus) {
  const std::string xml =
      datagen::GenerateRecursivePubs(100000, GetParam());
  const char* queries[] = {
      "//pub[year]//book[@id]/title/text()",
      "//pub//pub/book/price/sum()",
      "//book[price>50]/title/text()",
      "//pub[book@id]//year/text()",
      "//pub/year/count()",
      "//pub[year>2005]//book",
      "//book/@id | //pub/year/@id",
      "//book[title%king]/price/text()",
  };
  for (const char* query : queries) {
    ExpectMatchesOracle(query, xml);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleDifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{6}));

class GenericScaleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GenericScaleTest, GenericCorpusClosureAndUnionQueries) {
  datagen::GenericOptions options;
  options.nested_levels = 7;
  options.tags = {"n0", "n1", "n2"};
  const std::string xml = datagen::GenerateGeneric(80000, GetParam(), options);
  const char* queries[] = {
      "//n0//n1/text()",
      "//n0[@id]//n2/count()",
      "//n1[n2]//n0",
      "//n0/text() | //n1/text()",
      "//n2[@id>5000]/@id",
      "//*[n1]/n2/sum()",
  };
  for (const char* query : queries) {
    ExpectMatchesOracle(query, xml);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenericScaleTest,
                         ::testing::Range(uint64_t{0}, uint64_t{6}));

TEST(ScaleAggregationTest, UnionAggregatesMatchOracleOnShake) {
  const std::string xml = datagen::GenerateShake(120000, 5);
  ExpectMatchesOracle("//SPEAKER/count() | //LINE/count()", xml);
  ExpectMatchesOracle(
      "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()", xml);
  ExpectMatchesOracle("//SPEECH[SPEAKER=HAMLET]/LINE/count()", xml);
}

}  // namespace
}  // namespace xsq
