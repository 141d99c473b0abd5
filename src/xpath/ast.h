// Abstract syntax for the XPath fragment of the paper (Figure 3).
//
// A query is a location path (a sequence of location steps, each with an
// axis, a node test, and optional predicates) followed by an optional
// output expression. Extensions beyond the figure, all exercised by
// tests: `*` wildcard node tests, multiple predicates per step
// (conjunction), and the avg()/min()/max() aggregations.
#ifndef XSQ_XPATH_AST_H_
#define XSQ_XPATH_AST_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xsq::xpath {

// `/` is the child axis; `//` is the closure (descendant-or-self) axis.
enum class Axis { kChild, kClosure };

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

const char* CompareOpName(CompareOp op);

// The five predicate categories of paper Section 3.2, which determine the
// BPDT template used for the step and the SAX events at which the
// predicate is decided.
enum class PredicateKind {
  kAttribute,       // [@attr] / [@attr OP c]      - decided at begin event
  kText,            // [text()] / [text() OP c]    - decided at text events
  kChild,           // [tag]                       - decided at child begin
  kChildAttribute,  // [tag@attr] / [tag@attr OP c]- decided at child begin
  kChildText,       // [tag OP c] / [tag text op]  - decided at child text
};

struct Predicate {
  PredicateKind kind;
  std::string child_tag;   // kChild / kChildAttribute / kChildText
  std::string attribute;   // kAttribute / kChildAttribute
  bool has_comparison = false;
  CompareOp op = CompareOp::kEq;
  std::string literal;                    // comparison constant (raw text)
  std::optional<double> literal_number;   // set when `literal` is numeric

  // True iff an element named `tag` is a child this predicate tests.
  bool ChildTagMatches(std::string_view tag) const {
    return child_tag == "*" || child_tag == tag;
  }
  std::string ToString() const;
};

struct LocationStep {
  Axis axis = Axis::kChild;
  std::string node_test;  // element tag, or "*" for any element
  std::vector<Predicate> predicates;

  bool IsWildcard() const { return node_test == "*"; }
  // True iff an element named `tag` passes this step's node test.
  bool TagMatches(std::string_view tag) const {
    return IsWildcard() || node_test == tag;
  }
  std::string ToString() const;
};

enum class OutputKind {
  kElement,    // no output expression: return the matching elements
  kAttribute,  // @attr of the matching element
  kText,       // text() of the matching element
  kCount,      // count() of matching elements
  kSum,        // sum() of the numeric content of matching elements
  kAvg,        // extension
  kMin,        // extension
  kMax,        // extension
};

inline bool IsAggregation(OutputKind kind) {
  return kind == OutputKind::kCount || kind == OutputKind::kSum ||
         kind == OutputKind::kAvg || kind == OutputKind::kMin ||
         kind == OutputKind::kMax;
}

struct OutputExpr {
  OutputKind kind = OutputKind::kElement;
  std::string attribute;  // kAttribute only

  std::string ToString() const;
};

struct Query {
  std::vector<LocationStep> steps;
  OutputExpr output;

  // Union queries (XPath 1.0 '|', an extension beyond the paper's
  // grammar): additional location paths whose matched elements are
  // unioned with this one's, with set semantics (an element matched by
  // several branches appears once) and document-order output. Every
  // branch must carry the same output expression. Branch queries have
  // no nested unions. Supported by XSQ-F and the DOM evaluator.
  std::vector<Query> union_branches;

  bool IsUnion() const { return !union_branches.empty(); }

  // True if any step (of any branch) uses the closure axis.
  bool HasClosure() const;
  // True if any step (of any branch) carries a predicate.
  bool HasPredicates() const;

  std::string ToString() const;
};

// Parses the textual form, e.g.
//   //pub[year>2000]//book[author]//name/text()
//   /PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()   (% = contains)
// Comparison constants may be numbers, quoted strings, or bare words.
Result<Query> ParseQuery(std::string_view text);

}  // namespace xsq::xpath

#endif  // XSQ_XPATH_AST_H_
