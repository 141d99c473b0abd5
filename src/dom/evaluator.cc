#include "dom/evaluator.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/strings.h"
#include "xml/writer.h"
#include "xpath/value_compare.h"

namespace xsq::dom {

namespace {

bool PredicateHolds(const Node& element, const xpath::Predicate& predicate) {
  using xpath::PredicateKind;
  switch (predicate.kind) {
    case PredicateKind::kAttribute: {
      const std::string* value = element.FindAttribute(predicate.attribute);
      if (value == nullptr) return false;
      return !predicate.has_comparison ||
             xpath::CompareValue(*value, predicate);
    }
    case PredicateKind::kText: {
      for (const auto& child : element.children()) {
        if (!child->is_text()) continue;
        if (!predicate.has_comparison ||
            xpath::CompareValue(child->text(), predicate)) {
          return true;
        }
      }
      return false;
    }
    case PredicateKind::kChild: {
      for (const auto& child : element.children()) {
        if (child->is_element() && predicate.ChildTagMatches(child->tag())) {
          return true;
        }
      }
      return false;
    }
    case PredicateKind::kChildAttribute: {
      for (const auto& child : element.children()) {
        if (!child->is_element() || !predicate.ChildTagMatches(child->tag())) {
          continue;
        }
        const std::string* value = child->FindAttribute(predicate.attribute);
        if (value == nullptr) continue;
        if (!predicate.has_comparison ||
            xpath::CompareValue(*value, predicate)) {
          return true;
        }
      }
      return false;
    }
    case PredicateKind::kChildText: {
      for (const auto& child : element.children()) {
        if (!child->is_element() || !predicate.ChildTagMatches(child->tag())) {
          continue;
        }
        for (const auto& grandchild : child->children()) {
          if (grandchild->is_text() &&
              xpath::CompareValue(grandchild->text(), predicate)) {
            return true;
          }
        }
      }
      return false;
    }
  }
  return false;
}

void CollectDescendants(const Node& node, const xpath::LocationStep& step,
                        std::unordered_set<const Node*>* out) {
  for (const auto& child : node.children()) {
    if (!child->is_element()) continue;
    if (step.TagMatches(child->tag()) &&
        ElementMatchesPredicates(*child, step)) {
      out->insert(child.get());
    }
    CollectDescendants(*child, step, out);
  }
}

void SerializeNode(const Node& node, xml::XmlWriter* writer) {
  if (node.is_text()) {
    writer->Text(node.text());
    return;
  }
  writer->BeginElement(node.tag(), xml::AttributeViews(node.attributes()));
  for (const auto& child : node.children()) {
    SerializeNode(*child, writer);
  }
  writer->EndElement(node.tag());
}

// Walks the tree in document order collecting output items.
class OutputCollector {
 public:
  OutputCollector(const xpath::OutputExpr& output,
                  const std::unordered_set<const Node*>& matched,
                  EvalResult* result)
      : output_(output), matched_(matched), result_(result) {}

  void Walk(const Node& node) {
    if (node.is_element() && matched_.count(&node) > 0) {
      EmitMatch(node);
    }
    if (output_.kind == xpath::OutputKind::kText && node.is_text() &&
        node.parent() != nullptr && matched_.count(node.parent()) > 0) {
      result_->items.push_back(node.text());
    }
    for (const auto& child : node.children()) {
      Walk(*child);
    }
  }

  void Finalize() {
    using xpath::OutputKind;
    result_->numeric_count = numeric_count_;
    result_->sum = sum_;
    if (numeric_count_ > 0) {
      result_->min = min_;
      result_->max = max_;
    }
    switch (output_.kind) {
      case OutputKind::kCount:
        result_->aggregate = static_cast<double>(count_);
        break;
      case OutputKind::kSum:
        result_->aggregate = sum_;
        break;
      case OutputKind::kAvg:
        if (numeric_count_ > 0) {
          result_->aggregate = sum_ / static_cast<double>(numeric_count_);
        }
        break;
      case OutputKind::kMin:
        if (numeric_count_ > 0) result_->aggregate = min_;
        break;
      case OutputKind::kMax:
        if (numeric_count_ > 0) result_->aggregate = max_;
        break;
      default:
        break;
    }
  }

 private:
  void EmitMatch(const Node& element) {
    using xpath::OutputKind;
    switch (output_.kind) {
      case OutputKind::kElement:
        result_->items.push_back(SerializeSubtree(element));
        break;
      case OutputKind::kAttribute: {
        const std::string* value = element.FindAttribute(output_.attribute);
        if (value != nullptr) result_->items.push_back(*value);
        break;
      }
      case OutputKind::kText:
        break;  // handled per text node in Walk
      case OutputKind::kCount:
        ++count_;
        break;
      case OutputKind::kSum:
      case OutputKind::kAvg:
      case OutputKind::kMin:
      case OutputKind::kMax: {
        std::optional<double> value = ParseNumber(element.DirectText());
        if (value.has_value()) {
          ++numeric_count_;
          sum_ += *value;
          min_ = std::min(min_, *value);
          max_ = std::max(max_, *value);
        }
        break;
      }
    }
  }

  const xpath::OutputExpr& output_;
  const std::unordered_set<const Node*>& matched_;
  EvalResult* result_;
  size_t count_ = 0;
  size_t numeric_count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace

bool ElementMatchesPredicates(const Node& element,
                              const xpath::LocationStep& step) {
  for (const xpath::Predicate& predicate : step.predicates) {
    if (!PredicateHolds(element, predicate)) return false;
  }
  return true;
}

std::string SerializeSubtree(const Node& element) {
  xml::XmlWriter writer;
  SerializeNode(element, &writer);
  return writer.TakeString();
}

namespace {

// Elements matching one location path, starting at the document node.
std::unordered_set<const Node*> ComputeFrontier(
    const Document& document, const std::vector<xpath::LocationStep>& steps) {
  std::unordered_set<const Node*> frontier = {document.document_node()};
  for (const xpath::LocationStep& step : steps) {
    std::unordered_set<const Node*> next;
    for (const Node* node : frontier) {
      if (step.axis == xpath::Axis::kChild) {
        for (const auto& child : node->children()) {
          if (child->is_element() && step.TagMatches(child->tag()) &&
              ElementMatchesPredicates(*child, step)) {
            next.insert(child.get());
          }
        }
      } else {
        CollectDescendants(*node, step, &next);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

}  // namespace

Result<EvalResult> Evaluate(const Document& document,
                            const xpath::Query& query) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("query has no location steps");
  }

  // Union semantics: the set union of the branches' matched elements.
  std::unordered_set<const Node*> frontier =
      ComputeFrontier(document, query.steps);
  for (const xpath::Query& branch : query.union_branches) {
    if (branch.steps.empty()) {
      return Status::InvalidArgument("union branch has no location steps");
    }
    for (const Node* node : ComputeFrontier(document, branch.steps)) {
      frontier.insert(node);
    }
  }

  EvalResult result;
  result.match_count = frontier.size();
  if (xpath::IsAggregation(query.output.kind) && frontier.empty()) {
    // count() and sum() of an empty match set are defined as 0.
    if (query.output.kind == xpath::OutputKind::kCount ||
        query.output.kind == xpath::OutputKind::kSum) {
      result.aggregate = 0.0;
    }
    return result;
  }

  OutputCollector collector(query.output, frontier, &result);
  collector.Walk(*document.document_node());
  collector.Finalize();
  return result;
}

}  // namespace xsq::dom
