#include "pubsub/subscription_registry.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/aggregator.h"
#include "tape/recorder.h"
#include "tape/replayer.h"
#include "tape/tape.h"
#include "xml/writer.h"
#include "xpath/value_compare.h"

namespace xsq::pubsub {

xpath::Query SubscriptionRegistry::Skeleton(const xpath::Query& query) {
  xpath::Query skeleton = query;
  for (xpath::LocationStep& step : skeleton.steps) step.predicates.clear();
  for (xpath::Query& branch : skeleton.union_branches) {
    for (xpath::LocationStep& step : branch.steps) step.predicates.clear();
  }
  return skeleton;
}

std::string_view SubscriptionRegistry::query_text(uint64_t id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return {};
  return subs_[it->second].query_text;
}

Result<uint64_t> SubscriptionRegistry::Subscribe(std::string_view query_text) {
  XSQ_ASSIGN_OR_RETURN(xpath::Query query, xpath::ParseQuery(query_text));
  if (query.steps.empty()) {
    return Status::InvalidArgument("subscription query has no location steps");
  }
  Sub sub;
  sub.query_text = std::string(query_text);
  sub.has_predicates = query.HasPredicates();
  if (sub.has_predicates) {
    // Predicate-bearing: a persistent full-evaluation engine, fed by
    // tape replay only when the skeleton survives NFA pruning.
    XSQ_ASSIGN_OR_RETURN(sub.engine, core::StreamingQuery::Open(query_text));
  }
  // Register the structural skeleton in the shared NFA. The returned
  // filter id is this subscription's dense slot index.
  XSQ_ASSIGN_OR_RETURN(int filter_id, skeleton_.AddQuery(Skeleton(query)));
  if (static_cast<size_t>(filter_id) != subs_.size()) {
    return Status::Internal("filter id out of sync with subscription slots");
  }
  sub.id = next_id_++;
  sub.query = std::move(query);
  sub.alive = true;
  by_id_.emplace(sub.id, subs_.size());
  subs_.push_back(std::move(sub));
  ++alive_count_;
  return subs_.back().id;
}

Status SubscriptionRegistry::Unsubscribe(uint64_t id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::InvalidArgument("unknown subscription id " +
                                   std::to_string(id));
  }
  Sub& sub = subs_[it->second];
  sub.alive = false;
  sub.engine.reset();  // free engine buffers; the NFA slot goes inert
  by_id_.erase(it);
  --alive_count_;
  return Status::OK();
}

// Runs the shared matcher over the single parse and emits results for
// every predicate-free subscription as the events stream by — no
// buffering beyond open element serializations, which is exactly what
// the matched output requires.
class SubscriptionRegistry::DirectRun : public xml::SaxHandler {
 public:
  // Per-subscription direct output, indexed by filter id.
  struct Out {
    std::vector<std::string> items;
    // Aggregation subscriptions: one entry per matched element, in
    // match (begin-event) order — the order the engines feed their
    // aggregator — holding the element's concatenated direct text.
    std::vector<std::string> agg_texts;
  };

  explicit DirectRun(const SubscriptionRegistry* registry)
      : registry_(registry), matcher_(&registry->skeleton_) {}

  void OnDocumentBegin() override {
    matcher_.OnDocumentBegin();
    outs_.assign(registry_->subs_.size(), Out());
    frames_.clear();
    frames_.emplace_back();  // depth 0 sentinel
    open_sers_.clear();
  }

  void OnBegin(std::string_view tag,
               const std::vector<xml::Attribute>& attributes,
               int depth) override {
    matcher_.OnBegin(tag, attributes, depth);
    frames_.emplace_back();
    Frame& frame = frames_.back();
    std::string begin_tag;
    if (!open_sers_.empty()) {
      xml::AppendBeginTag(&begin_tag, tag, attributes);
      for (Ser& ser : open_sers_) ser.buf.append(begin_tag);
    }
    for (int filter_id : matcher_.current_accepts()) {
      const Sub& sub = registry_->subs_[static_cast<size_t>(filter_id)];
      if (!sub.alive || sub.has_predicates) continue;
      Out& out = outs_[static_cast<size_t>(filter_id)];
      switch (sub.query.output.kind) {
        case xpath::OutputKind::kElement: {
          if (begin_tag.empty()) {
            xml::AppendBeginTag(&begin_tag, tag, attributes);
          }
          // Item slot reserved now so emission order is match order
          // even when matches nest; the serialization fills it at the
          // element's end event.
          out.items.emplace_back();
          open_sers_.push_back(Ser{static_cast<size_t>(filter_id),
                                   out.items.size() - 1, depth, begin_tag});
          break;
        }
        case xpath::OutputKind::kText:
          frame.text_subs.push_back(static_cast<size_t>(filter_id));
          break;
        case xpath::OutputKind::kAttribute: {
          const std::string_view* value =
              xpath::FindAttr(attributes, sub.query.output.attribute);
          if (value != nullptr) out.items.emplace_back(*value);
          break;
        }
        default: {  // aggregation: accumulate this element's direct text
          out.agg_texts.emplace_back();
          frame.agg_runs.push_back(AggRun{static_cast<size_t>(filter_id),
                                          out.agg_texts.size() - 1});
          break;
        }
      }
    }
  }

  void OnText(std::string_view /*tag*/, std::string_view text,
              int /*depth*/) override {
    Frame& frame = frames_.back();
    for (size_t filter_id : frame.text_subs) {
      outs_[filter_id].items.emplace_back(text);
    }
    for (const AggRun& run : frame.agg_runs) {
      outs_[run.sub].agg_texts[run.index].append(text);
    }
    if (!open_sers_.empty()) {
      std::string escaped = XmlEscape(text);
      for (Ser& ser : open_sers_) ser.buf.append(escaped);
    }
  }

  void OnEnd(std::string_view tag, int depth) override {
    if (!open_sers_.empty()) {
      std::string end_tag;
      xml::AppendEndTag(&end_tag, tag);
      for (Ser& ser : open_sers_) ser.buf.append(end_tag);
      // Serializations opened at this element are complete. They form a
      // suffix of the open list: anything opened deeper already closed
      // at its own end event.
      while (!open_sers_.empty() && open_sers_.back().start_depth == depth) {
        Ser& ser = open_sers_.back();
        outs_[ser.sub].items[ser.item_index] = std::move(ser.buf);
        open_sers_.pop_back();
      }
    }
    frames_.pop_back();
    matcher_.OnEnd(tag, depth);
  }

  const filter::FilterEngine::Matcher& matcher() const { return matcher_; }
  std::vector<Out>& outs() { return outs_; }

 private:
  struct AggRun {
    size_t sub;    // filter id
    size_t index;  // slot in outs_[sub].agg_texts
  };
  // Per-open-element bookkeeping (index == element depth).
  struct Frame {
    std::vector<size_t> text_subs;  // kText subscriptions matched here
    std::vector<AggRun> agg_runs;   // aggregation accumulators opened here
  };
  // One in-progress kElement serialization.
  struct Ser {
    size_t sub;
    size_t item_index;
    int start_depth;
    std::string buf;
  };

  const SubscriptionRegistry* registry_;
  filter::FilterEngine::Matcher matcher_;
  std::vector<Out> outs_;
  std::vector<Frame> frames_;
  std::vector<Ser> open_sers_;
};

Result<PublishOutcome> SubscriptionRegistry::Publish(
    std::string_view document) {
  PublishOutcome outcome;
  outcome.subscriptions = alive_count_;
  bool any_predicates = false;
  for (const Sub& sub : subs_) {
    if (sub.alive && sub.has_predicates) {
      ++outcome.predicate_subs;
      any_predicates = true;
    }
  }

  // ONE parse: the shared matcher + direct emission see the live
  // events; the recorder captures them for the (single) replay to
  // whatever predicate-bearing subscriptions survive pruning.
  DirectRun run(this);
  tape::Tape tape;
  tape::TapeRecorder recorder(&tape);
  xml::TeeHandler tee;
  tee.AddTarget(&run);
  if (any_predicates) tee.AddTarget(&recorder);
  xml::SaxParser parser(&tee, parser_limits_);
  XSQ_RETURN_IF_ERROR(parser.Parse(document));

  // Survivors: predicate-bearing subscriptions whose structural
  // skeleton matched somewhere in the document.
  std::vector<size_t> survivors;
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (subs_[i].alive && subs_[i].has_predicates &&
        run.matcher().Matched(static_cast<int>(i))) {
      survivors.push_back(i);
    }
  }
  outcome.filter_survivors = survivors.size();

  // ONE replay feeds every survivor's engine through a tee.
  if (!survivors.empty()) {
    xml::TeeHandler replay_tee;
    for (size_t i : survivors) {
      subs_[i].engine->Reset();
      replay_tee.AddTarget(subs_[i].engine->event_handler());
    }
    XSQ_RETURN_IF_ERROR(tape::Replay(tape, &replay_tee));
    outcome.tape_events = tape.event_count();
    outcome.hpdt_evaluations = survivors.size();
  }

  for (size_t i : survivors) {
    Sub& sub = subs_[i];
    Status finish = sub.engine->FinishEvents();
    if (!finish.ok()) {
      // Contained: this subscription delivers nothing for this
      // document; siblings and future publishes are unaffected.
      ++outcome.failed_evaluations;
      sub.engine->Reset();
      continue;
    }
    Delivery delivery;
    delivery.subscription_id = sub.id;
    if (xpath::IsAggregation(sub.query.output.kind)) {
      delivery.is_aggregate = true;
      delivery.aggregate = sub.engine->final_aggregate();
      outcome.deliveries.push_back(std::move(delivery));
    } else {
      while (std::optional<std::string> item = sub.engine->NextItem()) {
        delivery.items.push_back(std::move(*item));
      }
      if (!delivery.items.empty()) {
        outcome.deliveries.push_back(std::move(delivery));
      }
    }
    sub.engine->Reset();  // release engine buffers between documents
  }

  // Predicate-free subscriptions: results were emitted during the
  // parse. Aggregations always deliver (their empty-set value is
  // defined); others deliver when they produced items.
  std::vector<DirectRun::Out>& outs = run.outs();
  for (size_t i = 0; i < subs_.size(); ++i) {
    const Sub& sub = subs_[i];
    if (!sub.alive || sub.has_predicates) continue;
    Delivery delivery;
    delivery.subscription_id = sub.id;
    if (xpath::IsAggregation(sub.query.output.kind)) {
      core::Aggregator aggregator(sub.query.output.kind);
      for (const std::string& text : outs[i].agg_texts) {
        aggregator.Update(text);
      }
      delivery.is_aggregate = true;
      delivery.aggregate = aggregator.Final();
      outcome.deliveries.push_back(std::move(delivery));
    } else if (!outs[i].items.empty()) {
      delivery.items = std::move(outs[i].items);
      outcome.deliveries.push_back(std::move(delivery));
    }
  }

  // NFA-pruned aggregation subscriptions still owe their subscriber a
  // value: the empty match set aggregates to count/sum = 0 and absent
  // avg/min/max, independent of the document — synthesized with no
  // engine run (result parity with standalone evaluation).
  for (size_t i = 0; i < subs_.size(); ++i) {
    const Sub& sub = subs_[i];
    if (!sub.alive || !sub.has_predicates) continue;
    if (!xpath::IsAggregation(sub.query.output.kind)) continue;
    if (run.matcher().Matched(static_cast<int>(i))) continue;
    Delivery delivery;
    delivery.subscription_id = sub.id;
    delivery.is_aggregate = true;
    delivery.aggregate = core::Aggregator(sub.query.output.kind).Final();
    outcome.deliveries.push_back(std::move(delivery));
  }

  std::sort(outcome.deliveries.begin(), outcome.deliveries.end(),
            [](const Delivery& a, const Delivery& b) {
              return a.subscription_id < b.subscription_id;
            });
  return outcome;
}

}  // namespace xsq::pubsub
