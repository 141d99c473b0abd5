// Shared comparison semantics for predicate evaluation.
//
// Every engine (XSQ-F, XSQ-NC, naive, DOM oracle) routes comparisons
// through this single function so they agree exactly. Semantics follow
// XPath 1.0 number coercion: relational operators (<, <=, >, >=) compare
// numerically and are false when either side is not a number; = compares
// numerically when both sides are numbers and as strings otherwise;
// != is the negation of =; contains is a substring test.
#ifndef XSQ_XPATH_VALUE_COMPARE_H_
#define XSQ_XPATH_VALUE_COMPARE_H_

#include <string_view>

#include "xpath/ast.h"

namespace xsq::xpath {

// Compares an observed string value (attribute value or text content)
// against a predicate's comparison constant.
bool CompareValue(std::string_view observed, const Predicate& predicate);

// Generic form used by code that does not have a Predicate at hand.
bool CompareValue(std::string_view observed, CompareOp op,
                  std::string_view literal, bool literal_is_number,
                  double literal_number);

// The value of the attribute called `name`, or nullptr. `Attributes` is
// a list of xml::Attribute or xml::OwnedAttribute (anything with `name`
// and `value` members); xpath does not depend on xml.
template <typename Attributes>
auto FindAttr(const Attributes& attributes, std::string_view name)
    -> decltype(&attributes.begin()->value) {
  for (const auto& attr : attributes) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

// True iff the attribute predicate [@a] or [@a OP c] holds for an
// element with `attributes`.
template <typename Attributes>
bool AttributePredicateHolds(const Predicate& predicate,
                             const Attributes& attributes) {
  const auto* value = FindAttr(attributes, predicate.attribute);
  return value != nullptr &&
         (!predicate.has_comparison || CompareValue(*value, predicate));
}

}  // namespace xsq::xpath

#endif  // XSQ_XPATH_VALUE_COMPARE_H_
