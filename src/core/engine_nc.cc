#include "core/engine_nc.h"

#include "common/strings.h"
#include "xml/writer.h"
#include "xpath/value_compare.h"

namespace xsq::core {

XsqNcEngine::XsqNcEngine(xpath::Query query, ResultSink* sink)
    : StreamingEngine(query.output.kind, sink),
      query_(std::move(query)),
      num_steps_(query_.steps.size()) {
  Reset();
}

Result<std::unique_ptr<XsqNcEngine>> XsqNcEngine::Create(
    const xpath::Query& query, ResultSink* sink) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("query has no location steps");
  }
  if (query.HasClosure()) {
    return Status::NotSupported(
        "XSQ-NC does not support the closure axis '//'; use XSQ-F");
  }
  if (query.IsUnion()) {
    return Status::NotSupported(
        "XSQ-NC does not support union queries; use XSQ-F");
  }
  if (query.steps.size() > 32) {
    return Status::NotSupported("too many location steps");
  }
  return std::unique_ptr<XsqNcEngine>(new XsqNcEngine(query, sink));
}

void XsqNcEngine::Reset() {
  StreamingEngine::Reset();  // queue_ items discarded below
  stack_.clear();
  stack_.emplace_back();  // virtual document entry; always satisfied
  stack_.front().has_match = true;
  queue_.clear();
  serializing_item_ = nullptr;
  serialization_depth_ = 0;
}

size_t XsqNcEngine::LowestUnsatisfied(size_t from) const {
  for (size_t i = from; i >= 1; --i) {
    if (stack_[i].has_match && !stack_[i].satisfied()) return i;
  }
  return 0;
}

void XsqNcEngine::SatisfyPredicate(size_t entry_index, uint32_t bit) {
  NcEntry& entry = stack_[entry_index];
  entry.pending_mask &= ~(1u << bit);
  if (!entry.satisfied()) return;
  // Upload to the nearest still-undecided ancestor, or select directly:
  // in the deterministic HPDT selected items are always already at the
  // queue head, so they stream straight to the output.
  size_t holder = LowestUnsatisfied(entry_index - 1);
  if (holder > 0) {
    NcEntry& target = stack_[holder];
    target.held.insert(target.held.end(), entry.held.begin(),
                       entry.held.end());
  } else {
    for (NcItem* item : entry.held) {
      if (item->state == ItemState::kPending) {
        item->state = ItemState::kSelected;
      }
    }
  }
  entry.held.clear();
}

XsqNcEngine::NcItem* XsqNcEngine::MakeItem() {
  return &queue_.emplace_back();
}

void XsqNcEngine::AttachItem(NcItem* item) {
  size_t holder = LowestUnsatisfied(num_steps_);
  if (holder > 0) {
    stack_[holder].held.push_back(item);
  } else {
    item->state = ItemState::kSelected;
  }
}

void XsqNcEngine::AppendToItem(NcItem* item, std::string_view data) {
  item->value.append(data);
  memory_.Add(data.size());
}

void XsqNcEngine::EmitReadyItems() {
  while (!queue_.empty()) {
    NcItem* front = &queue_.front();
    if (front->state == ItemState::kPending) break;
    if (front->state == ItemState::kSelected) {
      if (!front->complete) break;
      EmitItem(front->value);
    }
    memory_.Release(front->value.size());
    queue_.pop_front();
  }
}

void XsqNcEngine::OnBegin(std::string_view tag,
                          const std::vector<xml::Attribute>& attributes,
                          int depth) {
  if (!status_.ok()) return;
  if (CheckCancelSampled()) return;
  const size_t d = static_cast<size_t>(depth);
  if (d != stack_.size()) {
    status_ = Status::Internal("event depth out of sync with engine stack");
    return;
  }

  // Child-based predicates of the parent element's match.
  NcEntry& parent = stack_[d - 1];
  if (d - 1 >= 1 && parent.has_match && !parent.satisfied()) {
    const auto& predicates = query_.steps[d - 2].predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((parent.pending_mask >> j & 1u) == 0) continue;
      const xpath::Predicate& p = predicates[j];
      if (p.kind != xpath::PredicateKind::kChild &&
          p.kind != xpath::PredicateKind::kChildAttribute) {
        continue;
      }
      if (!p.ChildTagMatches(tag)) continue;
      if (p.kind == xpath::PredicateKind::kChildAttribute &&
          !xpath::AttributePredicateHolds(p, attributes)) {
        continue;
      }
      SatisfyPredicate(d - 1, static_cast<uint32_t>(j));
      if (stack_[d - 1].satisfied()) break;
    }
  }

  // At most one possible match: element depth == step index.
  stack_.emplace_back();
  NcEntry& entry = stack_.back();
  if (d <= num_steps_ && stack_[d - 1].has_match) {
    const xpath::LocationStep& step = query_.steps[d - 1];
    if (step.TagMatches(tag)) {
      uint32_t pending = 0;
      bool dead = false;
      for (size_t j = 0; j < step.predicates.size(); ++j) {
        const xpath::Predicate& p = step.predicates[j];
        if (p.kind == xpath::PredicateKind::kAttribute) {
          if (!xpath::AttributePredicateHolds(p, attributes)) {
            dead = true;
            break;
          }
        } else {
          pending |= 1u << j;
        }
      }
      if (!dead) {
        entry.has_match = true;
        entry.pending_mask = pending;
      }
    }
  }

  // Output duties.
  if (output_kind_ == xpath::OutputKind::kElement) {
    if (serializing_item_ != nullptr) {
      std::string begin_tag;
      xml::AppendBeginTag(&begin_tag, tag, attributes);
      AppendToItem(serializing_item_, begin_tag);
    } else if (entry.has_match && d == num_steps_) {
      NcItem* item = MakeItem();
      item->complete = false;
      AttachItem(item);
      std::string begin_tag;
      xml::AppendBeginTag(&begin_tag, tag, attributes);
      AppendToItem(item, begin_tag);
      serializing_item_ = item;
      serialization_depth_ = depth;
    }
  } else if (entry.has_match && d == num_steps_) {
    if (output_kind_ == xpath::OutputKind::kAttribute) {
      const std::string_view* value =
          xpath::FindAttr(attributes, query_.output.attribute);
      if (value != nullptr) {
        NcItem* item = MakeItem();
        AppendToItem(item, *value);
        AttachItem(item);
      }
    } else if (xpath::IsAggregation(output_kind_)) {
      NcItem* item = MakeItem();
      item->complete = false;
      AttachItem(item);
      entry.aggregate_item = item;
    }
  }

  EmitReadyItems();
}

void XsqNcEngine::OnText(std::string_view enclosing_tag,
                         std::string_view text, int /*depth*/) {
  if (!status_.ok()) return;
  if (CheckCancelSampled()) return;
  const size_t d = stack_.size() - 1;
  NcEntry& entry = stack_.back();

  // Text predicates on the enclosing element.
  if (d >= 1 && entry.has_match && !entry.satisfied()) {
    const auto& predicates = query_.steps[d - 1].predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((entry.pending_mask >> j & 1u) == 0) continue;
      const xpath::Predicate& p = predicates[j];
      if (p.kind != xpath::PredicateKind::kText) continue;
      if (p.has_comparison && !xpath::CompareValue(text, p)) continue;
      SatisfyPredicate(d, static_cast<uint32_t>(j));
      if (stack_[d].satisfied()) break;
    }
  }

  // Child-text predicates on the parent element.
  if (d >= 2 && stack_[d - 1].has_match && !stack_[d - 1].satisfied()) {
    const auto& predicates = query_.steps[d - 2].predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((stack_[d - 1].pending_mask >> j & 1u) == 0) continue;
      const xpath::Predicate& p = predicates[j];
      if (p.kind != xpath::PredicateKind::kChildText) continue;
      if (!p.ChildTagMatches(enclosing_tag)) continue;
      if (!xpath::CompareValue(text, p)) continue;
      SatisfyPredicate(d - 1, static_cast<uint32_t>(j));
      if (stack_[d - 1].satisfied()) break;
    }
  }

  // Output.
  if (output_kind_ == xpath::OutputKind::kText && entry.has_match &&
      d == num_steps_) {
    NcItem* item = MakeItem();
    AppendToItem(item, text);
    AttachItem(item);
  }
  if (entry.aggregate_item != nullptr) {
    AppendToItem(entry.aggregate_item, text);
  }
  if (serializing_item_ != nullptr) {
    AppendToItem(serializing_item_, XmlEscape(text));
  }

  EmitReadyItems();
}

void XsqNcEngine::OnEnd(std::string_view tag, int depth) {
  if (!status_.ok()) return;
  if (CheckCancelSampled()) return;
  NcEntry& entry = stack_.back();

  if (serializing_item_ != nullptr) {
    std::string end_tag;
    xml::AppendEndTag(&end_tag, tag);
    AppendToItem(serializing_item_, end_tag);
    if (depth == serialization_depth_) {
      serializing_item_->complete = true;
      serializing_item_ = nullptr;
      serialization_depth_ = 0;
    }
  }

  if (entry.aggregate_item != nullptr) {
    entry.aggregate_item->complete = true;
    entry.aggregate_item = nullptr;
  }

  if (entry.has_match && !entry.satisfied()) {
    // Predicate definitively false: clear the buffer.
    for (NcItem* item : entry.held) {
      if (item->state == ItemState::kPending) {
        item->state = ItemState::kDiscarded;
      }
    }
  }
  stack_.pop_back();

  EmitReadyItems();
}

void XsqNcEngine::OnDocumentEnd() {
  if (!status_.ok()) return;
  EmitReadyItems();
  if (!queue_.empty()) {
    status_ = Status::Internal(
        "unresolved buffered items at end of document (engine bug)");
    return;
  }
  EmitFinalAggregate();
}

}  // namespace xsq::core
