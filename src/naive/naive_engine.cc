#include "naive/naive_engine.h"

#include "dom/evaluator.h"

namespace xsq::naive {

NaiveEngine::NaiveEngine(xpath::Query query, core::ResultSink* sink)
    : StreamingEngine(query.output.kind, sink), query_(std::move(query)) {
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
  StreamingEngine::Reset();  // the candidate is discarded below
  buffering_.reset();
  build_stack_.clear();
  candidate_depth_ = 0;
}

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
  for (const std::string& item : result->items) EmitItem(item);
  // An aggregation folds the candidate's partial result into the
  // statistics buffer; the running value is reported if it changed.
  if (xpath::IsAggregation(output_kind_) &&
      aggregator_.Absorb(result->match_count, result->numeric_count,
                         result->sum, result->min, result->max)) {
    EmitRunningAggregate();
  }
}

void NaiveEngine::OnDocumentEnd() {
  if (status_.ok()) EmitFinalAggregate();
}

}  // namespace xsq::naive
