#include "dtd/optimizer.h"

#include <algorithm>
#include <unordered_set>

namespace xsq::dtd {

namespace {

constexpr int kMaxPathDepth = 16;
constexpr size_t kMaxPaths = 32;

// True when `predicate` can possibly hold for an element named `tag` in
// a document that is valid with respect to `dtd`.
bool PredicateFeasible(const Dtd& dtd, const std::string& tag,
                       const xpath::Predicate& predicate) {
  const ElementDecl* decl = dtd.FindElement(tag);
  if (decl == nullptr) return false;  // valid docs contain declared elements

  auto has_attribute = [](const ElementDecl& d, const std::string& name) {
    for (const AttributeDecl& attr : d.attributes) {
      if (attr.name == name) return true;
    }
    return false;
  };

  switch (predicate.kind) {
    case xpath::PredicateKind::kAttribute:
      return has_attribute(*decl, predicate.attribute);
    case xpath::PredicateKind::kText:
      return dtd.AllowsText(tag);
    case xpath::PredicateKind::kChild:
    case xpath::PredicateKind::kChildText:
    case xpath::PredicateKind::kChildAttribute: {
      std::vector<std::string> children = dtd.PossibleChildren(tag);
      for (const std::string& child : children) {
        if (!predicate.ChildTagMatches(child)) continue;
        if (predicate.kind == xpath::PredicateKind::kChildText &&
            !dtd.AllowsText(child)) {
          continue;
        }
        if (predicate.kind == xpath::PredicateKind::kChildAttribute) {
          const ElementDecl* child_decl = dtd.FindElement(child);
          if (child_decl == nullptr ||
              !has_attribute(*child_decl, predicate.attribute)) {
            continue;
          }
        }
        return true;
      }
      return false;
    }
  }
  return false;
}

bool StepFeasible(const Dtd& dtd, const std::string& tag,
                  const xpath::LocationStep& step) {
  for (const xpath::Predicate& predicate : step.predicates) {
    if (!PredicateFeasible(dtd, tag, predicate)) return false;
  }
  return true;
}

// Enumerates the distinct tag sequences leading from `source` (or from
// the document node when source is empty) to an element accepted by
// `step`. Returns false when enumeration is abandoned (cycle or limits).
bool EnumeratePaths(const Dtd& dtd, const std::string& root_element,
                    const std::string& source,
                    const xpath::LocationStep& step,
                    std::vector<std::vector<std::string>>* paths) {
  std::vector<std::string> current;
  std::unordered_set<std::string> on_path;

  // Iterative DFS with an explicit stack of (tag, child index).
  struct Level {
    std::vector<std::string> children;
    size_t next = 0;
  };
  std::vector<Level> stack;
  auto children_of = [&](const std::string& tag) {
    if (tag.empty()) return std::vector<std::string>{root_element};
    return dtd.PossibleChildren(tag);
  };
  stack.push_back({children_of(source), 0});

  while (!stack.empty()) {
    Level& level = stack.back();
    if (level.next >= level.children.size()) {
      stack.pop_back();
      if (!current.empty()) {
        on_path.erase(current.back());
        current.pop_back();
      }
      continue;
    }
    const std::string tag = level.children[level.next++];
    if (on_path.count(tag) > 0) {
      return false;  // cycle: infinitely many paths possible
    }
    current.push_back(tag);
    on_path.insert(tag);
    if (step.TagMatches(tag) && StepFeasible(dtd, tag, step)) {
      paths->push_back(current);
      if (paths->size() > kMaxPaths) return false;
    }
    if (static_cast<int>(current.size()) >= kMaxPathDepth) {
      on_path.erase(current.back());
      current.pop_back();
      continue;
    }
    stack.push_back({children_of(tag), 0});
  }
  return true;
}

}  // namespace

Result<QueryAnalysis> AnalyzeQuery(const Dtd& dtd,
                                   const std::string& root_element,
                                   const xpath::Query& query) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("query has no location steps");
  }
  if (query.IsUnion()) {
    return Status::NotSupported(
        "schema analysis does not support union queries yet");
  }
  if (dtd.FindElement(root_element) == nullptr) {
    return Status::InvalidArgument("root element '" + root_element +
                                   "' is not declared in the DTD");
  }

  QueryAnalysis analysis;

  // Possible tags per step.
  std::vector<std::string> frontier;  // tags matching the previous step
  bool at_document_node = true;
  for (const xpath::LocationStep& step : query.steps) {
    std::unordered_set<std::string> candidates;
    if (step.axis == xpath::Axis::kChild) {
      if (at_document_node) {
        candidates.insert(root_element);
      } else {
        for (const std::string& tag : frontier) {
          for (const std::string& child : dtd.PossibleChildren(tag)) {
            candidates.insert(child);
          }
        }
      }
    } else {
      if (at_document_node) {
        candidates.insert(root_element);
        for (const std::string& tag :
             dtd.ReachableDescendants(root_element)) {
          candidates.insert(tag);
        }
      } else {
        for (const std::string& tag : frontier) {
          for (const std::string& descendant :
               dtd.ReachableDescendants(tag)) {
            candidates.insert(descendant);
          }
        }
      }
    }
    std::vector<std::string> surviving;
    for (const std::string& tag : candidates) {
      if (step.TagMatches(tag) && StepFeasible(dtd, tag, step)) {
        surviving.push_back(tag);
      }
    }
    std::sort(surviving.begin(), surviving.end());
    if (surviving.empty()) {
      analysis.satisfiable = false;
      analysis.unsatisfiable_reason =
          "no element can match step " + step.ToString() +
          " under this DTD";
    }
    analysis.step_tags.push_back(surviving);
    frontier = analysis.step_tags.back();
    at_document_node = false;
  }
  if (!analysis.satisfiable) return analysis;

  // Closure elimination: rewrite each '//' step whose expansion is a
  // unique child path.
  if (query.HasClosure()) {
    xpath::Query rewrite;
    rewrite.output = query.output;
    bool ok = true;
    std::vector<std::string> sources = {""};  // "" = document node
    for (size_t i = 0; i < query.steps.size() && ok; ++i) {
      const xpath::LocationStep& step = query.steps[i];
      if (step.axis == xpath::Axis::kChild) {
        rewrite.steps.push_back(step);
        sources = analysis.step_tags[i];
        continue;
      }
      std::vector<std::vector<std::string>> paths;
      for (const std::string& source : sources) {
        if (!EnumeratePaths(dtd, root_element, source, step, &paths)) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
      std::sort(paths.begin(), paths.end());
      paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
      if (paths.size() != 1) {
        ok = false;
        break;
      }
      const std::vector<std::string>& path = paths.front();
      for (size_t k = 0; k + 1 < path.size(); ++k) {
        xpath::LocationStep intermediate;
        intermediate.axis = xpath::Axis::kChild;
        intermediate.node_test = path[k];
        rewrite.steps.push_back(std::move(intermediate));
      }
      xpath::LocationStep final_step = step;
      final_step.axis = xpath::Axis::kChild;
      final_step.node_test = path.back();  // resolves wildcards too
      rewrite.steps.push_back(std::move(final_step));
      sources = analysis.step_tags[i];
    }
    if (ok) {
      analysis.closure_free_rewrite = std::move(rewrite);
    }
  }
  return analysis;
}

}  // namespace xsq::dtd
