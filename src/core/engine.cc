#include "core/engine.h"

#include <cassert>

#include "common/strings.h"
#include "core/compiled_plan.h"
#include "xml/sax_parser.h"
#include "xml/writer.h"
#include "xpath/value_compare.h"

namespace xsq::core {

XsqEngine::XsqEngine(std::vector<std::shared_ptr<const Hpdt>> hpdts,
                     ResultSink* sink)
    : hpdts_(std::move(hpdts)),
      sink_(sink),
      output_kind_(hpdts_.front()->query().output.kind),
      aggregator_(output_kind_) {
  for (const auto& hpdt : hpdts_) {
    branch_offsets_.push_back(total_step_slots_);
    total_step_slots_ += static_cast<size_t>(hpdt->num_layers()) + 1;
  }
  Reset();
}

Result<std::unique_ptr<XsqEngine>> XsqEngine::Create(
    const xpath::Query& query, ResultSink* sink) {
  // One HPDT per union branch; items are shared across branches so set
  // semantics and document order hold over the whole union.
  XSQ_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<const Hpdt>> hpdts,
                       BuildUnionHpdts(query));
  return std::unique_ptr<XsqEngine>(new XsqEngine(std::move(hpdts), sink));
}

Result<std::unique_ptr<XsqEngine>> XsqEngine::Create(
    std::vector<std::shared_ptr<const Hpdt>> hpdts, ResultSink* sink) {
  if (hpdts.empty()) {
    return Status::InvalidArgument("engine needs at least one HPDT");
  }
  return std::unique_ptr<XsqEngine>(new XsqEngine(std::move(hpdts), sink));
}

void XsqEngine::Reset() {
  memory_.ReleaseAll();  // buffered items discarded below
  stack_.clear();
  active_by_step_.assign(total_step_slots_, {});
  output_queue_.clear();
  serializations_.clear();
  aggregator_ = Aggregator(output_kind_);
  next_sequence_ = 0;
  live_matches_ = 0;
  cancel_tick_ = 0;
  status_ = Status::OK();

  // The virtual document entry with one always-TRUE root match per
  // branch (Figure 12): the document node is the depth-0 "element"
  // every leading '/' or '//' starts from.
  stack_.emplace_back();
  for (size_t b = 0; b < hpdts_.size(); ++b) {
    auto root_match = std::make_unique<Match>();
    root_match->bpdt = hpdts_[b]->root();
    root_match->branch = static_cast<int>(b);
    active_by_step_[StepSlot(static_cast<int>(b), 0)].push_back(
        root_match.get());
    stack_.back().matches.push_back(std::move(root_match));
  }
}

void XsqEngine::OnDocumentBegin() { Reset(); }

XsqEngine::Match* XsqEngine::LowestUnsatisfied(Match* match) {
  for (Match* cur = match; cur != nullptr; cur = cur->parent) {
    if (!cur->satisfied()) return cur;
  }
  return nullptr;
}

void XsqEngine::Trace(BufferOp::Kind kind, const Bpdt* bpdt,
                      const Item* item) {
  BufferOp op;
  op.kind = kind;
  if (bpdt != nullptr) op.bpdt = bpdt->Name();
  if (item != nullptr) op.value = item->value();
  trace_->OnBufferOp(op);
}

void XsqEngine::SatisfyPredicate(Match* match, uint32_t bit) {
  match->pending_mask &= ~(1u << bit);
  if (!match->satisfied()) return;
  // The BPDT reached its TRUE state: upload the buffer to the nearest
  // ancestor whose predicate is still undecided, or flush (select) when
  // every ancestor is TRUE - the true-spine case of Section 4.2.
  Match* holder = LowestUnsatisfied(match->parent);
  if (holder != nullptr) {
    for (std::shared_ptr<Item>& item : match->held) {
      if (trace_ != nullptr) {
        Trace(BufferOp::Kind::kUpload, holder->bpdt, item.get());
      }
      holder->held.push_back(std::move(item));
    }
  } else {
    for (std::shared_ptr<Item>& item : match->held) {
      if (trace_ != nullptr) {
        Trace(BufferOp::Kind::kFlush, match->bpdt, item.get());
      }
      item->Select();
    }
  }
  match->held.clear();
}

std::shared_ptr<Item> XsqEngine::MakeItem() {
  auto item = std::make_shared<Item>(next_sequence_++);
  output_queue_.push_back(item);
  ++stats_.items_created;
  return item;
}

void XsqEngine::AttachItem(const std::shared_ptr<Item>& item,
                           StackEntry* entry) {
  // One claim per match chain that can still prove the item; the item is
  // held by each chain's lowest undecided match ("enqueue" with the
  // chain's depth vector, Section 4.3).
  for (Match* match : entry->last_step_matches) {
    Match* holder = LowestUnsatisfied(match);
    if (holder != nullptr) {
      if (trace_ != nullptr) {
        Trace(BufferOp::Kind::kEnqueue, holder->bpdt, item.get());
      }
      holder->held.push_back(item);
      item->AddClaim();
    } else {
      if (trace_ != nullptr) {
        Trace(BufferOp::Kind::kFlush, match->bpdt, item.get());
      }
      item->Select();
    }
  }
}

void XsqEngine::AppendToItem(Item* item, std::string_view data) {
  item->mutable_value()->append(data);
  memory_.Add(data.size());
}

void XsqEngine::AppendToSerializations(std::string_view data) {
  for (ActiveSerialization& active : serializations_) {
    if (active.item->state() == Item::State::kDiscarded) continue;
    AppendToItem(active.item.get(), data);
  }
}

void XsqEngine::EmitReadyItems() {
  while (!output_queue_.empty()) {
    Item* front = output_queue_.front().get();
    if (front->state() == Item::State::kPending) break;
    if (front->state() == Item::State::kSelected) {
      if (!front->complete()) break;
      if (xpath::IsAggregation(output_kind_)) {
        if (aggregator_.Update(front->value())) {
          std::optional<double> current = aggregator_.Current();
          if (current.has_value()) sink_->OnAggregateUpdate(*current);
        }
      } else {
        sink_->OnItem(front->value());
      }
      if (trace_ != nullptr) {
        Trace(BufferOp::Kind::kEmit, nullptr, front);
      }
      ++stats_.items_emitted;
    } else {
      if (trace_ != nullptr) {
        Trace(BufferOp::Kind::kDiscard, nullptr, front);
      }
      ++stats_.items_discarded;
    }
    memory_.Release(front->value().size());
    output_queue_.pop_front();
  }
}

void XsqEngine::OnBegin(std::string_view tag,
                        const std::vector<xml::Attribute>& attributes,
                        int depth) {
  if (!status_.ok()) return;
  if (CheckCancelSampled()) return;
  if (static_cast<size_t>(depth) != stack_.size()) {
    status_ = Status::Internal("event depth out of sync with engine stack");
    return;
  }

  // 1. This begin event may decide child-existence / child-attribute
  // predicates of matches on the parent element (templates of
  // Figures 7 and 8).
  for (const auto& match : stack_.back().matches) {
    if (match->satisfied() || match->bpdt->step == nullptr) continue;
    const auto& predicates = match->bpdt->step->predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((match->pending_mask >> j & 1u) == 0) continue;
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
      SatisfyPredicate(match.get(), static_cast<uint32_t>(j));
      if (match->satisfied()) break;
    }
  }

  // 2. Collect the parent matches this element extends, before any state
  // for the new element exists (closure sources are strict ancestors).
  struct Candidate {
    Match* parent;
    int branch;
    int step_index;
  };
  std::vector<Candidate> candidates;
  for (size_t b = 0; b < hpdts_.size(); ++b) {
    const auto& steps = hpdts_[b]->query().steps;
    const int branch = static_cast<int>(b);
    for (int i = 1; i <= hpdts_[b]->num_layers(); ++i) {
      const xpath::LocationStep& step = steps[static_cast<size_t>(i) - 1];
      if (!step.TagMatches(tag)) continue;
      if (step.axis == xpath::Axis::kChild) {
        for (const auto& match : stack_.back().matches) {
          if (match->branch == branch && match->bpdt->layer == i - 1) {
            candidates.push_back({match.get(), branch, i});
          }
        }
      } else {
        // The closure self-transition keeps the START state live at
        // every depth, so any active match at step i-1 is a source.
        for (Match* match : active_by_step_[StepSlot(branch, i - 1)]) {
          candidates.push_back({match, branch, i});
        }
      }
    }
  }

  // 3. Create the new element's match instances. Attribute predicates
  // are decided right here (Figure 5: no NA state); a failing one means
  // no transition, hence no match.
  stack_.emplace_back();
  StackEntry& entry = stack_.back();
  for (const Candidate& candidate : candidates) {
    const xpath::LocationStep& step =
        hpdts_[static_cast<size_t>(candidate.branch)]
            ->query()
            .steps[static_cast<size_t>(candidate.step_index) - 1];
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
    if (dead) continue;
    const Bpdt* bpdt = hpdts_[static_cast<size_t>(candidate.branch)]->Enter(
        candidate.parent->bpdt, candidate.parent->satisfied());
    // Collapse behaviorally identical chains: a second fully-resolved
    // true-spine match at the same (branch, step, element) can neither
    // hold items nor produce different descendants.
    if (bpdt->on_true_spine && pending == 0) {
      uint64_t bit = uint64_t{1}
                     << StepSlot(candidate.branch, candidate.step_index);
      if (entry.resolved_spine_steps & bit) continue;
      entry.resolved_spine_steps |= bit;
    }
    auto match = std::make_unique<Match>();
    match->bpdt = bpdt;
    match->parent = candidate.parent;
    match->branch = candidate.branch;
    match->pending_mask = pending;
    Match* raw = match.get();
    entry.matches.push_back(std::move(match));
    active_by_step_[StepSlot(candidate.branch, candidate.step_index)]
        .push_back(raw);
    if (candidate.step_index ==
        hpdts_[static_cast<size_t>(candidate.branch)]->num_layers()) {
      entry.last_step_matches.push_back(raw);
    }
    ++stats_.matches_created;
    ++live_matches_;
    if (live_matches_ > stats_.peak_live_matches) {
      stats_.peak_live_matches = live_matches_;
    }
  }

  // 4. Output duties of the lowest layer (Section 4.2): produce the item
  // for this element if it matched the output step.
  if (output_kind_ == xpath::OutputKind::kElement) {
    std::string begin_tag;
    xml::AppendBeginTag(&begin_tag, tag, attributes);
    AppendToSerializations(begin_tag);
    if (!entry.last_step_matches.empty()) {
      std::shared_ptr<Item> item = MakeItem();
      item->set_incomplete();
      AttachItem(item, &entry);
      AppendToItem(item.get(), begin_tag);
      serializations_.push_back({item, depth});
    }
  } else if (output_kind_ == xpath::OutputKind::kAttribute) {
    if (!entry.last_step_matches.empty()) {
      const std::string_view* value = xpath::FindAttr(
          attributes, hpdts_.front()->query().output.attribute);
      if (value != nullptr) {
        std::shared_ptr<Item> item = MakeItem();
        AppendToItem(item.get(), *value);
        AttachItem(item, &entry);
      }
    }
  } else if (xpath::IsAggregation(output_kind_)) {
    if (!entry.last_step_matches.empty()) {
      std::shared_ptr<Item> item = MakeItem();
      item->set_incomplete();  // accumulates the element's direct text
      AttachItem(item, &entry);
      entry.aggregate_item = item;
    }
  }

  EmitReadyItems();
}

void XsqEngine::OnText(std::string_view enclosing_tag, std::string_view text,
                       int /*depth*/) {
  if (!status_.ok()) return;
  if (CheckCancelSampled()) return;
  StackEntry& entry = stack_.back();

  // Text predicates on the enclosing element (Figure 6 template).
  for (const auto& match : entry.matches) {
    if (match->satisfied()) continue;
    const auto& predicates = match->bpdt->step->predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((match->pending_mask >> j & 1u) == 0) continue;
      const xpath::Predicate& p = predicates[j];
      if (p.kind != xpath::PredicateKind::kText) continue;
      if (p.has_comparison && !xpath::CompareValue(text, p)) continue;
      SatisfyPredicate(match.get(), static_cast<uint32_t>(j));
      if (match->satisfied()) break;
    }
  }

  // Child-text predicates on the parent element (Figure 9 template).
  if (stack_.size() >= 2) {
    StackEntry& parent = stack_[stack_.size() - 2];
    for (const auto& match : parent.matches) {
      if (match->satisfied() || match->bpdt->step == nullptr) continue;
      const auto& predicates = match->bpdt->step->predicates;
      for (size_t j = 0; j < predicates.size(); ++j) {
        if ((match->pending_mask >> j & 1u) == 0) continue;
        const xpath::Predicate& p = predicates[j];
        if (p.kind != xpath::PredicateKind::kChildText) continue;
        if (!p.ChildTagMatches(enclosing_tag)) continue;
        if (!xpath::CompareValue(text, p)) continue;
        SatisfyPredicate(match.get(), static_cast<uint32_t>(j));
        if (match->satisfied()) break;
      }
    }
  }

  // Output.
  if (output_kind_ == xpath::OutputKind::kText &&
      !entry.last_step_matches.empty()) {
    std::shared_ptr<Item> item = MakeItem();
    AppendToItem(item.get(), text);
    AttachItem(item, &entry);
  }
  if (entry.aggregate_item != nullptr) {
    AppendToItem(entry.aggregate_item.get(), text);
  }
  if (output_kind_ == xpath::OutputKind::kElement &&
      !serializations_.empty()) {
    AppendToSerializations(XmlEscape(text));
  }

  EmitReadyItems();
}

void XsqEngine::OnEnd(std::string_view tag, int depth) {
  if (!status_.ok()) return;
  if (CheckCancelSampled()) return;
  StackEntry& entry = stack_.back();

  if (output_kind_ == xpath::OutputKind::kElement &&
      !serializations_.empty()) {
    std::string end_tag;
    xml::AppendEndTag(&end_tag, tag);
    AppendToSerializations(end_tag);
    // Element items rooted at this element are now complete.
    for (size_t i = serializations_.size(); i > 0; --i) {
      ActiveSerialization& active = serializations_[i - 1];
      if (active.begin_depth == depth) {
        active.item->set_complete();
        serializations_.erase(serializations_.begin() +
                              static_cast<long>(i - 1));
      }
    }
  }

  if (entry.aggregate_item != nullptr) {
    entry.aggregate_item->set_complete();
    entry.aggregate_item.reset();
  }

  // Matches still NA have definitively failed their predicate: clear
  // their buffers (one claim dropped per held item).
  for (const auto& match : entry.matches) {
    if (!match->satisfied()) {
      for (const std::shared_ptr<Item>& item : match->held) {
        if (trace_ != nullptr) {
          Trace(BufferOp::Kind::kClear, match->bpdt, item.get());
        }
        item->DropClaim();
      }
    }
    // Remove from the closure-source index (it is near the back).
    auto& actives =
        active_by_step_[StepSlot(match->branch, match->bpdt->layer)];
    for (size_t i = actives.size(); i > 0; --i) {
      if (actives[i - 1] == match.get()) {
        actives.erase(actives.begin() + static_cast<long>(i - 1));
        break;
      }
    }
  }
  live_matches_ -= entry.matches.size();
  stack_.pop_back();

  EmitReadyItems();
}

void XsqEngine::OnDocumentEnd() {
  if (!status_.ok()) return;
  EmitReadyItems();
  if (!output_queue_.empty()) {
    status_ = Status::Internal(
        "unresolved buffered items at end of document (engine bug)");
    return;
  }
  if (xpath::IsAggregation(output_kind_)) {
    sink_->OnAggregateFinal(aggregator_.Final());
  }
}

Result<QueryResult> RunQuery(std::string_view query_text,
                             std::string_view xml_text) {
  XSQ_ASSIGN_OR_RETURN(xpath::Query query, xpath::ParseQuery(query_text));
  CollectingSink sink;
  XSQ_ASSIGN_OR_RETURN(auto engine, XsqEngine::Create(query, &sink));
  xml::SaxParser parser(engine.get());
  XSQ_RETURN_IF_ERROR(parser.Parse(xml_text));
  XSQ_RETURN_IF_ERROR(engine->status());
  QueryResult result;
  result.items = std::move(sink.items);
  result.aggregate = sink.aggregate;
  return result;
}

}  // namespace xsq::core
