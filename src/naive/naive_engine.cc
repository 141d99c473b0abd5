#include "naive/naive_engine.h"

#include <algorithm>

#include "dom/evaluator.h"

namespace xsq::naive {

NaiveEngine::NaiveEngine(xpath::Query query, core::ResultSink* sink)
    : query_(std::move(query)), sink_(sink) {
  Reset();
}

Result<std::unique_ptr<NaiveEngine>> NaiveEngine::Create(
    const xpath::Query& query, core::ResultSink* sink) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("query has no location steps");
  }
  if (query.IsUnion()) {
    return Status::NotSupported(
        "the subtree-buffering engine does not support union queries");
  }
  return std::unique_ptr<NaiveEngine>(new NaiveEngine(query, sink));
}

void NaiveEngine::Reset() {
  buffering_.reset();
  build_stack_.clear();
  candidate_depth_ = 0;
  agg_count_ = 0;
  agg_numeric_count_ = 0;
  agg_sum_ = 0.0;
  agg_min_ = 0.0;
  agg_max_ = 0.0;
  status_ = Status::OK();
}

void NaiveEngine::OnDocumentBegin() { Reset(); }

bool NaiveEngine::IsCandidate(std::string_view tag, int depth) const {
  const xpath::LocationStep& first = query_.steps.front();
  if (!first.TagMatches(tag)) return false;
  // A child-axis first step only matches the root element; a closure
  // first step matches the tag at any depth (nested occurrences are
  // covered by the enclosing candidate's evaluation).
  return first.axis == xpath::Axis::kClosure || depth == 1;
}

void NaiveEngine::OnBegin(std::string_view tag,
                          const std::vector<xml::Attribute>& attributes,
                          int depth) {
  if (!status_.ok()) return;
  if (buffering_ == nullptr) {
    if (!IsCandidate(tag, depth)) return;
    buffering_ = std::make_unique<dom::Document>();
    build_stack_.clear();
    build_stack_.push_back(buffering_->mutable_document_node());
    candidate_depth_ = depth;
  }
  dom::Node* node = build_stack_.back()->AddChild(dom::Node::MakeElement(
      std::string(tag), xml::CopyAttributes(attributes)));
  build_stack_.push_back(node);
  size_t bytes = sizeof(dom::Node) + tag.size();
  for (const xml::Attribute& attr : attributes) {
    bytes += attr.name.size() + attr.value.size();
  }
  memory_.Add(bytes);
}

void NaiveEngine::OnText(std::string_view /*enclosing_tag*/,
                         std::string_view text, int /*depth*/) {
  if (!status_.ok() || buffering_ == nullptr) return;
  build_stack_.back()->AddChild(dom::Node::MakeText(std::string(text)));
  memory_.Add(sizeof(dom::Node) + text.size());
}

void NaiveEngine::OnEnd(std::string_view /*tag*/, int depth) {
  if (!status_.ok() || buffering_ == nullptr) return;
  build_stack_.pop_back();
  if (depth == candidate_depth_) {
    EvaluateCandidate();
    memory_.Release(memory_.current_bytes());
    buffering_.reset();
  }
}

void NaiveEngine::EvaluateCandidate() {
  buffering_->AssignOrderIndexes();
  Result<dom::EvalResult> result = dom::Evaluate(*buffering_, query_);
  if (!result.ok()) {
    status_ = result.status();
    return;
  }
  for (const std::string& item : result->items) {
    sink_->OnItem(item);
  }
  if (!xpath::IsAggregation(query_.output.kind)) return;
  agg_count_ += result->match_count;
  if (result->numeric_count > 0) {
    if (agg_numeric_count_ == 0) {
      agg_min_ = result->min;
      agg_max_ = result->max;
    } else {
      agg_min_ = std::min(agg_min_, result->min);
      agg_max_ = std::max(agg_max_, result->max);
    }
    agg_numeric_count_ += result->numeric_count;
    agg_sum_ += result->sum;
  }
  // Incremental updates, one per candidate subtree.
  switch (query_.output.kind) {
    case xpath::OutputKind::kCount:
      sink_->OnAggregateUpdate(static_cast<double>(agg_count_));
      break;
    case xpath::OutputKind::kSum:
      sink_->OnAggregateUpdate(agg_sum_);
      break;
    case xpath::OutputKind::kAvg:
      if (agg_numeric_count_ > 0) {
        sink_->OnAggregateUpdate(agg_sum_ /
                                 static_cast<double>(agg_numeric_count_));
      }
      break;
    case xpath::OutputKind::kMin:
      if (agg_numeric_count_ > 0) sink_->OnAggregateUpdate(agg_min_);
      break;
    case xpath::OutputKind::kMax:
      if (agg_numeric_count_ > 0) sink_->OnAggregateUpdate(agg_max_);
      break;
    default:
      break;
  }
}

void NaiveEngine::OnDocumentEnd() {
  if (!status_.ok()) return;
  if (!xpath::IsAggregation(query_.output.kind)) return;
  switch (query_.output.kind) {
    case xpath::OutputKind::kCount:
      sink_->OnAggregateFinal(static_cast<double>(agg_count_));
      break;
    case xpath::OutputKind::kSum:
      sink_->OnAggregateFinal(agg_sum_);
      break;
    case xpath::OutputKind::kAvg:
      sink_->OnAggregateFinal(
          agg_numeric_count_ > 0
              ? std::optional<double>(agg_sum_ /
                                      static_cast<double>(agg_numeric_count_))
              : std::nullopt);
      break;
    case xpath::OutputKind::kMin:
      sink_->OnAggregateFinal(agg_numeric_count_ > 0
                                  ? std::optional<double>(agg_min_)
                                  : std::nullopt);
      break;
    case xpath::OutputKind::kMax:
      sink_->OnAggregateFinal(agg_numeric_count_ > 0
                                  ? std::optional<double>(agg_max_)
                                  : std::nullopt);
      break;
    default:
      break;
  }
}

}  // namespace xsq::naive
