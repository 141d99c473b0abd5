#include "xsm/xsm_engine.h"

#include "common/strings.h"
#include "xml/writer.h"
#include "xpath/value_compare.h"

namespace xsq::xsm {

size_t Token::ApproxBytes() const {
  size_t bytes = sizeof(Token) + tag.size() + text.size();
  for (const xml::OwnedAttribute& attr : attributes) {
    bytes += attr.name.size() + attr.value.size();
  }
  return bytes;
}

// Receives the output token stream of a stage.
class TokenSinkBase {
 public:
  virtual ~TokenSinkBase() = default;
  virtual void Process(const Token& token) = 0;
};

// The terminal machine: applies the output expression to the matched
// element subtrees the last stage forwards.
class XsmEngine::OutputCollector : public TokenSinkBase {
 public:
  OutputCollector(const xpath::OutputExpr& output, core::ResultSink* sink)
      : output_(output), sink_(sink), aggregator_(output.kind) {}

  void Process(const Token& token) override {
    switch (token.type) {
      case Token::Type::kBegin:
        ++depth_;
        if (depth_ == 1) {
          StartElement(token);
        } else if (output_.kind == xpath::OutputKind::kElement) {
          xml::AppendBeginTag(&serialized_, token.tag, token.attributes);
        }
        break;
      case Token::Type::kText:
        if (output_.kind == xpath::OutputKind::kElement) {
          serialized_ += XmlEscape(token.text);
        } else if (depth_ == 1) {
          if (output_.kind == xpath::OutputKind::kText) {
            sink_->OnItem(token.text);
          } else if (xpath::IsAggregation(output_.kind)) {
            element_text_ += token.text;
          }
        }
        break;
      case Token::Type::kEnd:
        if (output_.kind == xpath::OutputKind::kElement) {
          xml::AppendEndTag(&serialized_, token.tag);
        }
        if (depth_ == 1) FinishElement();
        --depth_;
        break;
    }
  }

  void FinishDocument() {
    if (xpath::IsAggregation(output_.kind)) {
      sink_->OnAggregateFinal(aggregator_.Final());
    }
  }

  void Reset() {
    depth_ = 0;
    serialized_.clear();
    element_text_.clear();
    aggregator_ = core::Aggregator(output_.kind);
  }

 private:
  void StartElement(const Token& token) {
    switch (output_.kind) {
      case xpath::OutputKind::kElement:
        serialized_.clear();
        xml::AppendBeginTag(&serialized_, token.tag, token.attributes);
        break;
      case xpath::OutputKind::kAttribute:
        if (const std::string* value =
                xpath::FindAttr(token.attributes, output_.attribute)) {
          sink_->OnItem(*value);
        }
        break;
      case xpath::OutputKind::kText:
        break;
      default:  // aggregations accumulate the element's direct text
        element_text_.clear();
        break;
    }
  }

  void FinishElement() {
    if (output_.kind == xpath::OutputKind::kElement) {
      sink_->OnItem(serialized_);
      serialized_.clear();
    } else if (xpath::IsAggregation(output_.kind)) {
      if (aggregator_.Update(element_text_)) {
        std::optional<double> current = aggregator_.Current();
        if (current.has_value()) sink_->OnAggregateUpdate(*current);
      }
      element_text_.clear();
    }
  }

  const xpath::OutputExpr& output_;
  core::ResultSink* sink_;
  core::Aggregator aggregator_;
  int depth_ = 0;
  std::string serialized_;
  std::string element_text_;
};

// One transducer of the chain: selects elements matching its location
// step among the depth-1 elements of its input stream, evaluates the
// step's predicates, and forwards accepted content downstream.
class XsmEngine::Stage : public TokenSinkBase {
 public:
  Stage(const xpath::LocationStep& step, bool forward_self,
        XsmEngine* engine, TokenSinkBase* next)
      : step_(step), forward_self_(forward_self), engine_(engine),
        next_(next) {}

  void Process(const Token& token) override {
    switch (token.type) {
      case Token::Type::kBegin:
        ++depth_;
        if (depth_ == 1) {
          BeginCandidate(token);
        } else if (in_candidate_) {
          if (depth_ == 2 && pending_mask_ != 0) {
            CheckChildBeginPredicates(token);
          }
          Emit(token);
        }
        break;
      case Token::Type::kText:
        if (in_candidate_) {
          if (pending_mask_ != 0) {
            if (depth_ == 1) CheckTextPredicates(token);
            if (depth_ == 2) CheckChildTextPredicates(token);
          }
          Emit(token);
        }
        break;
      case Token::Type::kEnd:
        if (in_candidate_) {
          if (depth_ > 1 || forward_self_) Emit(token);
          if (depth_ == 1) {
            if (pending_mask_ != 0) DropBuffer();  // predicate failed
            in_candidate_ = false;
          }
        }
        --depth_;
        break;
    }
  }

  void Reset() {
    depth_ = 0;
    in_candidate_ = false;
    pending_mask_ = 0;
    DropBuffer();
  }

 private:
  void BeginCandidate(const Token& token) {
    in_candidate_ = false;
    if (!step_.TagMatches(token.tag)) return;
    uint32_t pending = 0;
    for (size_t j = 0; j < step_.predicates.size(); ++j) {
      const xpath::Predicate& p = step_.predicates[j];
      if (p.kind == xpath::PredicateKind::kAttribute) {
        // A failing attribute predicate means the candidate is dead.
        if (!xpath::AttributePredicateHolds(p, token.attributes)) return;
      } else {
        pending |= 1u << j;
      }
    }
    in_candidate_ = true;
    pending_mask_ = pending;
    if (forward_self_) Emit(token);
  }

  void CheckChildBeginPredicates(const Token& token) {
    const auto& predicates = step_.predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((pending_mask_ >> j & 1u) == 0) continue;
      const xpath::Predicate& p = predicates[j];
      if (p.kind == xpath::PredicateKind::kChild) {
        if (p.ChildTagMatches(token.tag)) Satisfy(static_cast<uint32_t>(j));
      } else if (p.kind == xpath::PredicateKind::kChildAttribute) {
        if (p.ChildTagMatches(token.tag) &&
            xpath::AttributePredicateHolds(p, token.attributes)) {
          Satisfy(static_cast<uint32_t>(j));
        }
      }
    }
  }

  void CheckTextPredicates(const Token& token) {
    const auto& predicates = step_.predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((pending_mask_ >> j & 1u) == 0) continue;
      const xpath::Predicate& p = predicates[j];
      if (p.kind != xpath::PredicateKind::kText) continue;
      if (!p.has_comparison || xpath::CompareValue(token.text, p)) {
        Satisfy(static_cast<uint32_t>(j));
      }
    }
  }

  void CheckChildTextPredicates(const Token& token) {
    const auto& predicates = step_.predicates;
    for (size_t j = 0; j < predicates.size(); ++j) {
      if ((pending_mask_ >> j & 1u) == 0) continue;
      const xpath::Predicate& p = predicates[j];
      if (p.kind != xpath::PredicateKind::kChildText) continue;
      // token.tag carries the enclosing (child) element's tag.
      if (p.ChildTagMatches(token.tag) &&
          xpath::CompareValue(token.text, p)) {
        Satisfy(static_cast<uint32_t>(j));
      }
    }
  }

  void Satisfy(uint32_t bit) {
    pending_mask_ &= ~(1u << bit);
    if (pending_mask_ != 0) return;
    // Flush the stage queue downstream, then stream the rest live.
    for (const Token& buffered : buffer_) {
      Forward(buffered);
    }
    ReleaseBufferBytes();
    buffer_.clear();
  }

  void Emit(const Token& token) {
    if (pending_mask_ != 0) {
      buffer_.push_back(token);
      size_t bytes = token.ApproxBytes();
      buffered_bytes_ += bytes;
      engine_->memory_.Add(bytes);
    } else {
      Forward(token);
    }
  }

  void Forward(const Token& token) {
    ++engine_->tokens_forwarded_;
    next_->Process(token);
  }

  void DropBuffer() {
    ReleaseBufferBytes();
    buffer_.clear();
  }

  void ReleaseBufferBytes() {
    engine_->memory_.Release(buffered_bytes_);
    buffered_bytes_ = 0;
  }

  const xpath::LocationStep& step_;
  const bool forward_self_;  // last stage forwards the element itself
  XsmEngine* engine_;
  TokenSinkBase* next_;
  int depth_ = 0;
  bool in_candidate_ = false;
  uint32_t pending_mask_ = 0;
  std::vector<Token> buffer_;
  size_t buffered_bytes_ = 0;
};

XsmEngine::XsmEngine(xpath::Query query, core::ResultSink* sink)
    : query_(std::move(query)), sink_(sink) {
  collector_ = std::make_unique<OutputCollector>(query_.output, sink_);
  TokenSinkBase* next = collector_.get();
  for (size_t i = query_.steps.size(); i > 0; --i) {
    bool is_last = i == query_.steps.size();
    stages_.insert(stages_.begin(),
                   std::make_unique<Stage>(query_.steps[i - 1], is_last,
                                           this, next));
    next = stages_.front().get();
  }
}

XsmEngine::~XsmEngine() = default;

Result<std::unique_ptr<XsmEngine>> XsmEngine::Create(
    const xpath::Query& query, core::ResultSink* sink) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("query has no location steps");
  }
  if (query.HasClosure()) {
    return Status::NotSupported(
        "the XSM-style chained transducer does not handle closures");
  }
  if (query.IsUnion()) {
    return Status::NotSupported(
        "the XSM-style chained transducer does not handle union queries");
  }
  if (query.steps.size() > 32) {
    return Status::NotSupported("too many location steps");
  }
  return std::unique_ptr<XsmEngine>(new XsmEngine(query, sink));
}

void XsmEngine::Reset() {
  for (auto& stage : stages_) stage->Reset();
  collector_->Reset();
  status_ = Status::OK();
}

void XsmEngine::OnDocumentBegin() { Reset(); }

void XsmEngine::OnBegin(std::string_view tag,
                        const std::vector<xml::Attribute>& attributes,
                        int /*depth*/) {
  Token token;
  token.type = Token::Type::kBegin;
  token.tag.assign(tag);
  token.attributes = xml::CopyAttributes(attributes);
  stages_.front()->Process(token);
}

void XsmEngine::OnText(std::string_view enclosing_tag, std::string_view text,
                       int /*depth*/) {
  Token token;
  token.type = Token::Type::kText;
  token.tag.assign(enclosing_tag);
  token.text.assign(text);
  stages_.front()->Process(token);
}

void XsmEngine::OnEnd(std::string_view tag, int /*depth*/) {
  Token token;
  token.type = Token::Type::kEnd;
  token.tag.assign(tag);
  stages_.front()->Process(token);
}

void XsmEngine::OnDocumentEnd() { collector_->FinishDocument(); }

}  // namespace xsq::xsm
