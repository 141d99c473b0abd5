#include "filter/filter_engine.h"

#include <gtest/gtest.h>

namespace xsq::filter {
namespace {

TEST(FilterEngineTest, SingleQueryMatch) {
  FilterEngine engine;
  Result<int> id = engine.AddQuery("/r/a");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0);
  auto matched = engine.FilterDocument("<r><a/></r>");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(*matched, std::vector<int>{0});
  matched = engine.FilterDocument("<r><b/></r>");
  ASSERT_TRUE(matched.ok());
  EXPECT_TRUE(matched->empty());
}

TEST(FilterEngineTest, RejectsPredicates) {
  FilterEngine engine;
  Result<int> id = engine.AddQuery("/r/a[b]");
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotSupported);
}

TEST(FilterEngineTest, MultipleQueriesOverOneDocument) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("/lib/book").ok());       // 0
  ASSERT_TRUE(engine.AddQuery("/lib/book/title").ok()); // 1
  ASSERT_TRUE(engine.AddQuery("//title").ok());         // 2
  ASSERT_TRUE(engine.AddQuery("/lib/cd").ok());         // 3
  auto matched =
      engine.FilterDocument("<lib><book><title>T</title></book></lib>");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(*matched, (std::vector<int>{0, 1, 2}));
}

TEST(FilterEngineTest, SharedPrefixesShareNodes) {
  FilterEngine shared;
  ASSERT_TRUE(shared.AddQuery("/a/b/c").ok());
  ASSERT_TRUE(shared.AddQuery("/a/b/d").ok());
  FilterEngine separate;
  ASSERT_TRUE(separate.AddQuery("/a/b/c").ok());
  ASSERT_TRUE(separate.AddQuery("/x/y/z").ok());
  // /a/b is shared: 4 nodes beyond the root; disjoint queries need 6.
  EXPECT_EQ(shared.node_count(), 5u);
  EXPECT_EQ(separate.node_count(), 7u);
}

TEST(FilterEngineTest, IdenticalQueriesGetDistinctIds) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a").ok());
  ASSERT_TRUE(engine.AddQuery("//a").ok());
  auto matched = engine.FilterDocument("<r><a/></r>");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(*matched, (std::vector<int>{0, 1}));
}

TEST(FilterEngineTest, ClosureAxisMatchesAtAnyDepth) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("//needle").ok());
  auto matched = engine.FilterDocument(
      "<a><b><c><needle/></c></b></a>");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->size(), 1u);
  matched = engine.FilterDocument("<a><b/></a>");
  ASSERT_TRUE(matched.ok());
  EXPECT_TRUE(matched->empty());
}

TEST(FilterEngineTest, ClosureInMiddle) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("/r//x/y").ok());
  EXPECT_EQ(engine.FilterDocument("<r><a><x><y/></x></a></r>")->size(), 1u);
  EXPECT_EQ(engine.FilterDocument("<r><x><a><y/></a></x></r>")->size(), 0u);
  EXPECT_EQ(engine.FilterDocument("<r><x><y/></x></r>")->size(), 1u);
}

TEST(FilterEngineTest, ChildStepsDoNotMatchBelowTheirParent) {
  // The root and /r keep '//' edges, so both stay in the frontier while
  // the stream descends; below their own element only those edges may
  // fire, not their '/' edges or '/*'.
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("//z").ok());    // 0
  ASSERT_TRUE(engine.AddQuery("/a").ok());     // 1
  ASSERT_TRUE(engine.AddQuery("/r//z").ok());  // 2
  ASSERT_TRUE(engine.AddQuery("/r/b").ok());   // 3
  ASSERT_TRUE(engine.AddQuery("/r/*").ok());   // 4
  auto matched = engine.FilterDocument("<r><x><a/><b/></x></r>");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(*matched, std::vector<int>{4});
  matched = engine.FilterDocument("<a><r><b/></r></a>");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(*matched, std::vector<int>{1});
}

TEST(FilterEngineTest, WildcardSteps) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("/r/*/leaf").ok());
  EXPECT_EQ(engine.FilterDocument("<r><mid><leaf/></mid></r>")->size(), 1u);
  EXPECT_EQ(engine.FilterDocument("<r><leaf/></r>")->size(), 0u);
}

TEST(FilterEngineTest, ManyQueriesManyDocuments) {
  FilterEngine engine;
  for (int i = 0; i < 50; ++i) {
    std::string query = "//t" + std::to_string(i);
    ASSERT_TRUE(engine.AddQuery(query).ok());
  }
  EXPECT_EQ(engine.query_count(), 50u);
  for (int i = 0; i < 50; ++i) {
    std::string doc = "<root><t" + std::to_string(i) + "/></root>";
    auto matched = engine.FilterDocument(doc);
    ASSERT_TRUE(matched.ok());
    ASSERT_EQ(matched->size(), 1u);
    EXPECT_EQ((*matched)[0], i);
  }
}

TEST(FilterEngineTest, RecursiveDocumentDoesNotDoubleReport) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a//a").ok());
  auto matched = engine.FilterDocument("<a><a><a/></a></a>");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(*matched, std::vector<int>{0});
}

TEST(FilterEngineTest, DuplicateQueryReusesNodeChain) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("/lib//book/title").ok());
  size_t nodes_after_first = engine.node_count();
  // An identical path re-registered reuses the existing chain end to
  // end: zero node growth, still a distinct query id.
  ASSERT_TRUE(engine.AddQuery("/lib//book/title").ok());
  EXPECT_EQ(engine.node_count(), nodes_after_first);
  EXPECT_EQ(engine.query_count(), 2u);
}

TEST(FilterEngineTest, MatcherReportsPerEventAccepts) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a").ok());       // 0
  ASSERT_TRUE(engine.AddQuery("//a/b").ok());     // 1
  ASSERT_TRUE(engine.AddQuery("/a/c").ok());      // 2
  FilterEngine::Matcher matcher(&engine);
  matcher.OnDocumentBegin();
  std::vector<xml::Attribute> no_attrs;
  matcher.OnBegin("a", no_attrs, 1);
  EXPECT_EQ(matcher.current_accepts(), std::vector<int>{0});
  matcher.OnBegin("b", no_attrs, 2);
  EXPECT_EQ(matcher.current_accepts(), std::vector<int>{1});
  matcher.OnEnd("b", 2);
  // A non-matching element under a '//' continuation reports nothing,
  // even though ancestor NFA nodes stay alive across it.
  matcher.OnBegin("x", no_attrs, 2);
  EXPECT_TRUE(matcher.current_accepts().empty());
  matcher.OnBegin("a", no_attrs, 3);
  EXPECT_EQ(matcher.current_accepts(), std::vector<int>{0});
  matcher.OnEnd("a", 3);
  matcher.OnEnd("x", 2);
  matcher.OnBegin("c", no_attrs, 2);
  EXPECT_EQ(matcher.current_accepts(), std::vector<int>{2});
  matcher.OnEnd("c", 2);
  matcher.OnEnd("a", 1);
  matcher.OnDocumentEnd();
  EXPECT_EQ(matcher.MatchedIds(), (std::vector<int>{0, 1, 2}));
}

TEST(FilterEngineTest, MatcherDedupsAcceptsAcrossUnionBranches) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a | /r/a").ok());
  FilterEngine::Matcher matcher(&engine);
  matcher.OnDocumentBegin();
  std::vector<xml::Attribute> no_attrs;
  matcher.OnBegin("r", no_attrs, 1);
  matcher.OnBegin("a", no_attrs, 2);
  // Both branches accept this element; the query reports once.
  EXPECT_EQ(matcher.current_accepts(), std::vector<int>{0});
  matcher.OnEnd("a", 2);
  matcher.OnEnd("r", 1);
  matcher.OnDocumentEnd();
}

TEST(FilterEngineTest, MatcherReusableAcrossDocumentsAndNewQueries) {
  FilterEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a").ok());
  FilterEngine::Matcher matcher(&engine);
  std::vector<xml::Attribute> no_attrs;
  matcher.OnDocumentBegin();
  matcher.OnBegin("a", no_attrs, 1);
  matcher.OnEnd("a", 1);
  matcher.OnDocumentEnd();
  EXPECT_EQ(matcher.MatchedIds(), std::vector<int>{0});
  // Subscribe-between-documents: Reset picks up the grown query set.
  ASSERT_TRUE(engine.AddQuery("//b").ok());
  matcher.OnDocumentBegin();
  matcher.OnBegin("b", no_attrs, 1);
  matcher.OnEnd("b", 1);
  matcher.OnDocumentEnd();
  EXPECT_EQ(matcher.MatchedIds(), std::vector<int>{1});
}

}  // namespace
}  // namespace xsq::filter
