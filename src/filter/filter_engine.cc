#include "filter/filter_engine.h"

#include <algorithm>

#include "xml/sax_parser.h"

namespace xsq::filter {

uint32_t FilterEngine::InternTag(const std::string& tag) {
  auto [it, inserted] =
      tag_ids_.try_emplace(tag, static_cast<uint32_t>(tag_ids_.size()));
  return it->second;
}

Result<int> FilterEngine::AddQuery(std::string_view query_text) {
  XSQ_ASSIGN_OR_RETURN(xpath::Query query, xpath::ParseQuery(query_text));
  return AddQuery(query);
}

Result<int> FilterEngine::AddQuery(const xpath::Query& query) {
  if (query.HasPredicates()) {
    return Status::NotSupported(
        "filtering supports only structural (predicate-free) paths");
  }
  int id = static_cast<int>(query_count_);
  XSQ_RETURN_IF_ERROR(AddBranch(query.steps, id));
  for (const xpath::Query& branch : query.union_branches) {
    XSQ_RETURN_IF_ERROR(AddBranch(branch.steps, id));
  }
  ++query_count_;
  return id;
}

Status FilterEngine::AddBranch(const std::vector<xpath::LocationStep>& steps,
                               int id) {
  int node = 0;
  for (const xpath::LocationStep& step : steps) {
    const uint32_t tag_id =
        step.IsWildcard() ? kNoTag : InternTag(step.node_test);
    Node& current = nodes_[static_cast<size_t>(node)];
    int* slot;
    if (step.axis == xpath::Axis::kChild) {
      if (step.IsWildcard()) {
        slot = &current.child_wildcard;
      } else {
        slot = &nodes_[static_cast<size_t>(node)]
                    .child_edges.try_emplace(tag_id, -1)
                    .first->second;
      }
    } else {
      if (step.IsWildcard()) {
        slot = &current.desc_wildcard;
      } else {
        slot = &nodes_[static_cast<size_t>(node)]
                    .desc_edges.try_emplace(tag_id, -1)
                    .first->second;
      }
    }
    if (*slot < 0) {
      int fresh = AddNode();  // may reallocate nodes_: re-resolve the slot
      Node& owner = nodes_[static_cast<size_t>(node)];
      if (step.axis == xpath::Axis::kChild) {
        if (step.IsWildcard()) {
          owner.child_wildcard = fresh;
        } else {
          owner.child_edges[tag_id] = fresh;
        }
      } else {
        if (step.IsWildcard()) {
          owner.desc_wildcard = fresh;
        } else {
          owner.desc_edges[tag_id] = fresh;
        }
      }
      node = fresh;
    } else {
      node = *slot;
    }
  }
  nodes_[static_cast<size_t>(node)].accepts.push_back(id);
  return Status::OK();
}

void FilterEngine::Matcher::Reset() {
  matched_.assign(engine_->query_count_, 0);
  frontiers_.clear();
  frontiers_.push_back({Active{0, false}});
  current_accepts_.clear();
}

void FilterEngine::Matcher::Activate(int node_id, std::vector<Active>* next) {
  next->push_back(Active{node_id, false});
  const Node& node = engine_->nodes_[static_cast<size_t>(node_id)];
  for (int query_id : node.accepts) {
    current_accepts_.push_back(query_id);
    matched_[static_cast<size_t>(query_id)] = 1;
  }
}

void FilterEngine::Matcher::OnBegin(
    std::string_view tag, const std::vector<xml::Attribute>& /*attributes*/,
    int /*depth*/) {
  current_accepts_.clear();
  // One string hash per event: resolve the tag to its dense id, then
  // probe integer maps per frontier node.
  tag_scratch_.assign(tag.data(), tag.size());
  const uint32_t tag_id = engine_->FindTag(tag_scratch_);
  std::vector<Active> next;
  const std::vector<Node>& nodes = engine_->nodes_;
  for (const Active& active : frontiers_.back()) {
    const Node& node = nodes[static_cast<size_t>(active.node)];
    if (tag_id != kNoTag) {
      if (!active.survived) {
        auto child_it = node.child_edges.find(tag_id);
        if (child_it != node.child_edges.end()) {
          Activate(child_it->second, &next);
        }
      }
      auto desc_it = node.desc_edges.find(tag_id);
      if (desc_it != node.desc_edges.end()) Activate(desc_it->second, &next);
    }
    if (!active.survived && node.child_wildcard >= 0) {
      Activate(node.child_wildcard, &next);
    }
    if (node.desc_wildcard >= 0) Activate(node.desc_wildcard, &next);
    // A node with pending '//' continuations stays active while the
    // stream descends below it. This is survival, not a transition:
    // the opened element does not match the node's prefix, so its
    // accepts are NOT reported into current_accepts_ (matched_ was
    // already set when the node was first entered via an edge).
    if (node.HasDescendantEdges()) next.push_back(Active{active.node, true});
  }
  // One entry per node; where a node is both entered and survived, the
  // entered entry (sorted first) is kept.
  std::sort(next.begin(), next.end(), [](const Active& a, const Active& b) {
    return a.node != b.node ? a.node < b.node : a.survived < b.survived;
  });
  next.erase(std::unique(next.begin(), next.end(),
                         [](const Active& a, const Active& b) {
                           return a.node == b.node;
                         }),
             next.end());
  frontiers_.push_back(std::move(next));
  std::sort(current_accepts_.begin(), current_accepts_.end());
  current_accepts_.erase(
      std::unique(current_accepts_.begin(), current_accepts_.end()),
      current_accepts_.end());
}

void FilterEngine::Matcher::OnEnd(std::string_view /*tag*/, int /*depth*/) {
  current_accepts_.clear();
  if (frontiers_.size() > 1) frontiers_.pop_back();
}

std::vector<int> FilterEngine::Matcher::MatchedIds() const {
  std::vector<int> ids;
  for (size_t i = 0; i < matched_.size(); ++i) {
    if (matched_[i]) ids.push_back(static_cast<int>(i));
  }
  return ids;
}

Result<std::vector<int>> FilterEngine::FilterDocument(
    std::string_view xml_text) {
  Matcher matcher(this);
  xml::SaxParser parser(&matcher);
  XSQ_RETURN_IF_ERROR(parser.Parse(xml_text));
  return matcher.MatchedIds();
}

}  // namespace xsq::filter
