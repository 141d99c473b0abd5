#include "lazydfa/lazy_dfa_engine.h"

#include "common/strings.h"
#include "xml/writer.h"
#include "xpath/value_compare.h"

namespace xsq::lazydfa {

LazyDfaEngine::LazyDfaEngine(xpath::Query query, core::ResultSink* sink)
    : StreamingEngine(query.output.kind, sink), query_(std::move(query)) {
  int next_bit = 0;
  branches_.push_back(&query_.steps);
  offsets_.push_back(next_bit);
  next_bit += static_cast<int>(query_.steps.size()) + 1;
  for (const xpath::Query& branch : query_.union_branches) {
    branches_.push_back(&branch.steps);
    offsets_.push_back(next_bit);
    next_bit += static_cast<int>(branch.steps.size()) + 1;
  }
  Reset();
}

Result<std::unique_ptr<LazyDfaEngine>> LazyDfaEngine::Create(
    const xpath::Query& query, core::ResultSink* sink) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("query has no location steps");
  }
  if (query.HasPredicates()) {
    return Status::NotSupported(
        "the lazy-DFA engine does not support predicates (like XMLTK)");
  }
  if (xpath::IsAggregation(query.output.kind)) {
    return Status::NotSupported(
        "the lazy-DFA engine does not support aggregation outputs");
  }
  size_t total_bits = query.steps.size() + 1;
  for (const xpath::Query& branch : query.union_branches) {
    if (branch.steps.empty()) {
      return Status::InvalidArgument("union branch has no location steps");
    }
    total_bits += branch.steps.size() + 1;
  }
  if (total_bits > 63) {
    return Status::NotSupported("too many location steps");
  }
  return std::unique_ptr<LazyDfaEngine>(new LazyDfaEngine(query, sink));
}

void LazyDfaEngine::Reset() {
  StreamingEngine::Reset();  // the automaton is discarded below
  dfa_states_.clear();
  state_ids_.clear();
  state_stack_.clear();
  accept_stack_.clear();
  pending_elements_.clear();
  open_serializations_.clear();
  // Initial DFA state: every branch's prefix 0 (the document node).
  uint64_t initial = 0;
  for (int offset : offsets_) initial |= uint64_t{1} << offset;
  state_stack_.push_back(InternState(initial));
  accept_stack_.push_back(0);
}

int LazyDfaEngine::InternState(uint64_t nfa_set) {
  auto it = state_ids_.find(nfa_set);
  if (it != state_ids_.end()) return it->second;
  int id = static_cast<int>(dfa_states_.size());
  DfaState state;
  state.nfa_set = nfa_set;
  for (size_t b = 0; b < branches_.size(); ++b) {
    int accept_bit = offsets_[b] + static_cast<int>(branches_[b]->size());
    if ((nfa_set >> accept_bit & 1) != 0) state.accepting = true;
  }
  dfa_states_.push_back(std::move(state));
  state_ids_.emplace(nfa_set, id);
  memory_.Add(sizeof(DfaState) + sizeof(uint64_t) + sizeof(int));
  return id;
}

int LazyDfaEngine::Transition(int state_id, std::string_view tag) {
  {
    DfaState& state = dfa_states_[static_cast<size_t>(state_id)];
    auto it = state.transitions.find(std::string(tag));
    if (it != state.transitions.end()) return it->second;
  }
  // Subset construction for this (state, tag) pair, over all branches.
  uint64_t from = dfa_states_[static_cast<size_t>(state_id)].nfa_set;
  uint64_t to = 0;
  for (size_t b = 0; b < branches_.size(); ++b) {
    const std::vector<xpath::LocationStep>& steps = *branches_[b];
    const int offset = offsets_[b];
    for (int i = 0; i < static_cast<int>(steps.size()); ++i) {
      if ((from >> (offset + i) & 1) == 0) continue;
      const xpath::LocationStep& step = steps[static_cast<size_t>(i)];
      bool tag_ok = step.TagMatches(tag);
      if (step.axis == xpath::Axis::kClosure) {
        to |= uint64_t{1} << (offset + i);  // ".*": stay at any depth
        if (tag_ok) to |= uint64_t{1} << (offset + i + 1);
      } else if (tag_ok) {
        to |= uint64_t{1} << (offset + i + 1);
      }
    }
  }
  // A complete match also persists under closure-like semantics only for
  // output of descendants; element results are decided at state entry,
  // so the accepting bit does not self-propagate.
  int target = InternState(to);
  DfaState& state = dfa_states_[static_cast<size_t>(state_id)];
  state.transitions.emplace(std::string(tag), target);
  memory_.Add(tag.size() + sizeof(int) + sizeof(void*));
  return target;
}

void LazyDfaEngine::EmitCompleted() {
  while (!pending_elements_.empty() && pending_elements_.front()->complete) {
    EmitItem(pending_elements_.front()->value);
    memory_.Release(pending_elements_.front()->value.size());
    pending_elements_.pop_front();
  }
}

void LazyDfaEngine::OnBegin(std::string_view tag,
                            const std::vector<xml::Attribute>& attributes,
                            int /*depth*/) {
  if (!status_.ok()) return;
  int next = Transition(state_stack_.back(), tag);
  bool accepting = dfa_states_[static_cast<size_t>(next)].accepting;
  state_stack_.push_back(next);
  accept_stack_.push_back(accepting ? 1 : 0);

  if (output_kind_ == xpath::OutputKind::kElement) {
    if (!open_serializations_.empty() || accepting) {
      std::string begin_tag;
      xml::AppendBeginTag(&begin_tag, tag, attributes);
      for (PendingElement* pending : open_serializations_) {
        pending->value.append(begin_tag);
        memory_.Add(begin_tag.size());
      }
      if (accepting) {
        pending_elements_.push_back(std::make_unique<PendingElement>());
        PendingElement* pending = pending_elements_.back().get();
        pending->value = begin_tag;
        memory_.Add(begin_tag.size());
        open_serializations_.push_back(pending);
      }
    }
  } else if (accepting && output_kind_ == xpath::OutputKind::kAttribute) {
    if (const std::string_view* value =
            xpath::FindAttr(attributes, query_.output.attribute)) {
      EmitItem(*value);
    }
  }
}

void LazyDfaEngine::OnText(std::string_view /*enclosing_tag*/,
                           std::string_view text, int /*depth*/) {
  if (!status_.ok()) return;
  if (output_kind_ == xpath::OutputKind::kText && accept_stack_.back()) {
    EmitItem(text);
  } else if (output_kind_ == xpath::OutputKind::kElement &&
             !open_serializations_.empty()) {
    std::string escaped = XmlEscape(text);
    for (PendingElement* pending : open_serializations_) {
      pending->value.append(escaped);
      memory_.Add(escaped.size());
    }
  }
}

void LazyDfaEngine::OnEnd(std::string_view tag, int /*depth*/) {
  if (!status_.ok()) return;
  if (output_kind_ == xpath::OutputKind::kElement &&
      !open_serializations_.empty()) {
    std::string end_tag;
    xml::AppendEndTag(&end_tag, tag);
    for (PendingElement* pending : open_serializations_) {
      pending->value.append(end_tag);
      memory_.Add(end_tag.size());
    }
    if (accept_stack_.back()) {
      open_serializations_.back()->complete = true;
      open_serializations_.pop_back();
      EmitCompleted();
    }
  }
  state_stack_.pop_back();
  accept_stack_.pop_back();
}

void LazyDfaEngine::OnDocumentEnd() {
  if (!status_.ok()) return;
  EmitCompleted();
  if (!pending_elements_.empty()) {
    status_ = Status::Internal("incomplete element buffers at document end");
  }
}

}  // namespace xsq::lazydfa
