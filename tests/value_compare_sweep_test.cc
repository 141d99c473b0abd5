// Parameterized sweep over the comparison semantics shared by every
// engine (xpath/value_compare.h): each case is (observed, op, literal,
// expected), covering numeric coercion, string fallback, whitespace,
// and contains.
#include <gtest/gtest.h>

#include <ostream>
#include <string_view>

#include "common/strings.h"
#include "xpath/ast.h"
#include "xpath/value_compare.h"

namespace xsq::xpath {
namespace {

struct CompareCase {
  const char* observed;
  CompareOp op;
  const char* literal;
  bool expected;
};

// gtest_discover_tests appends the printed parameter to each test's
// name. gtest's default printer dumps the struct's bytes, which hold
// string addresses and padding that change from build to build (and,
// under ASLR, from run to run), so the cases print their values instead.
// A run of eight or more equal characters prints as c{n} ("0{70}42"),
// which keeps the long numerals' names short and exact.
void PrintQuoted(std::string_view s, std::ostream* os) {
  *os << "'";
  for (size_t i = 0; i < s.size();) {
    size_t run = 1;
    while (i + run < s.size() && s[i + run] == s[i]) ++run;
    if (run >= 8) {
      *os << s[i] << '{' << run << '}';
    } else {
      *os << s.substr(i, run);
    }
    i += run;
  }
  *os << "'";
}

void PrintTo(const CompareCase& c, std::ostream* os) {
  PrintQuoted(c.observed, os);
  *os << " " << CompareOpName(c.op) << " ";
  PrintQuoted(c.literal, os);
  *os << (c.expected ? " is true" : " is false");
}

class ValueCompareSweep : public ::testing::TestWithParam<CompareCase> {};

TEST_P(ValueCompareSweep, MatchesExpectation) {
  const CompareCase& c = GetParam();
  Predicate predicate;
  predicate.kind = PredicateKind::kText;
  predicate.has_comparison = true;
  predicate.op = c.op;
  predicate.literal = c.literal;
  predicate.literal_number = ParseNumber(c.literal);
  EXPECT_EQ(CompareValue(c.observed, predicate), c.expected)
      << "'" << c.observed << "' " << CompareOpName(c.op) << " '"
      << c.literal << "'";
}

INSTANTIATE_TEST_SUITE_P(
    NumericRelational, ValueCompareSweep,
    ::testing::Values(
        CompareCase{"5", CompareOp::kLt, "10", true},
        CompareCase{"10", CompareOp::kLt, "10", false},
        CompareCase{"10", CompareOp::kLe, "10", true},
        CompareCase{"10.5", CompareOp::kGt, "10", true},
        CompareCase{"-3", CompareOp::kGt, "-4", true},
        CompareCase{"2e2", CompareOp::kGe, "200", true},
        CompareCase{"0.1", CompareOp::kGe, "0.2", false},
        CompareCase{" 7 ", CompareOp::kLt, "8", true},     // trimmed
        CompareCase{"abc", CompareOp::kLt, "10", false},   // NaN
        CompareCase{"10", CompareOp::kLt, "abc", false},   // literal NaN
        CompareCase{"", CompareOp::kLe, "0", false},
        CompareCase{"12x", CompareOp::kGt, "1", false}));  // partial number

// Regression: numerals longer than ParseNumber's old 63-char stack cap
// were treated as NaN, so zero-padded observed values compared as
// strings (or not at all) instead of numerically.
INSTANTIATE_TEST_SUITE_P(
    LongNumerals, ValueCompareSweep,
    ::testing::Values(
        // 72-char zero-padded 42 == 42 numerically.
        CompareCase{"000000000000000000000000000000000000"
                    "000000000000000000000000000000000042",
                    CompareOp::kEq, "42", true},
        CompareCase{"000000000000000000000000000000000000"
                    "000000000000000000000000000000000042",
                    CompareOp::kLt, "43", true},
        // Long observed vs long literal.
        CompareCase{"0000000000000000000000000000000000000000"
                    "0000000000000000000000000000000000000007",
                    CompareOp::kGe,
                    "0000000000000000000000000000000000000000"
                    "0000000000000000000000000000000000000008",
                    false}));

INSTANTIATE_TEST_SUITE_P(
    Equality, ValueCompareSweep,
    ::testing::Values(
        CompareCase{"10", CompareOp::kEq, "10.0", true},   // numeric
        CompareCase{" 10", CompareOp::kEq, "10", true},
        CompareCase{"10.", CompareOp::kEq, "10", true},
        CompareCase{"x", CompareOp::kEq, "x", true},       // string
        CompareCase{" x", CompareOp::kEq, "x", false},     // no trim
        CompareCase{"X", CompareOp::kEq, "x", false},      // case
        CompareCase{"x", CompareOp::kEq, "10", false},
        CompareCase{"10", CompareOp::kNe, "10.0", false},
        CompareCase{"11", CompareOp::kNe, "10", true},
        CompareCase{"x", CompareOp::kNe, "10", true},
        CompareCase{"", CompareOp::kEq, "", true}));

INSTANTIATE_TEST_SUITE_P(
    Contains, ValueCompareSweep,
    ::testing::Values(
        CompareCase{"what light", CompareOp::kContains, "light", true},
        CompareCase{"light", CompareOp::kContains, "what light", false},
        CompareCase{"lovely", CompareOp::kContains, "love", true},
        CompareCase{"love", CompareOp::kContains, "LOVE", false},  // case
        CompareCase{"anything", CompareOp::kContains, "", true},
        CompareCase{"", CompareOp::kContains, "x", false},
        CompareCase{"123.5", CompareOp::kContains, "3.5", true}));

struct FormatCase {
  double value;
  const char* expected;
};

void PrintTo(const FormatCase& c, std::ostream* os) {
  *os << c.value << " formats as ";
  PrintQuoted(c.expected, os);
}

class FormatNumberSweep : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatNumberSweep, FormatsLikeXPath) {
  EXPECT_EQ(FormatNumber(GetParam().value), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FormatNumberSweep,
    ::testing::Values(FormatCase{0.0, "0"}, FormatCase{-0.0, "-0"},
                      FormatCase{1.0, "1"}, FormatCase{-17.0, "-17"},
                      FormatCase{1e6, "1000000"},
                      FormatCase{0.5, "0.5"},
                      FormatCase{1.25, "1.25"}));

}  // namespace
}  // namespace xsq::xpath
