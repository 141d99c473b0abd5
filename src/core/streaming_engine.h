// StreamingEngine: what every streaming engine in this repository
// shares - XSQ-F, XSQ-NC, and the lazy-DFA (XMLTK), subtree-buffering
// (Joost) and chained-transducer (XSM) stand-ins.
//
// An engine is an xml::SaxHandler that turns the depth-extended event
// stream into results on a ResultSink. The event algorithms differ; the
// base holds the rest: the sink and the Section 4.4 emit rule, the
// status a failed document leaves, the buffer accounting of Figures
// 19/20, the sampled poll of a CancelToken, and Reset. A caller - the
// StreamingQuery facade, the benchmark harness, the differential tests,
// xsq_cli - therefore runs any engine through one pointer.
#ifndef XSQ_CORE_STREAMING_ENGINE_H_
#define XSQ_CORE_STREAMING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "core/aggregator.h"
#include "core/cancel_token.h"
#include "core/result_sink.h"
#include "xml/events.h"
#include "xpath/ast.h"

namespace xsq::core {

class StreamingEngine : public xml::SaxHandler {
 public:
  // Prepares the engine for another document with the same query. The
  // buffer accounting drops what the engine held but keeps its peak.
  virtual void Reset() {
    memory_.ReleaseAll();
    aggregator_ = Aggregator(output_kind_);
    cancel_tick_ = 0;
    status_ = Status::OK();
  }

  void OnDocumentBegin() override { Reset(); }

  // Installs a cooperative cancellation token, polled once every
  // token->check_interval_events() handler events (default
  // CancelToken::kCheckIntervalEvents). Pass nullptr to detach. Not
  // owned; must outlive the engine while installed. A trip sets
  // status() to kCancelled/kDeadlineExceeded, after which every handler
  // call is a no-op until Reset. XSQ-F and XSQ-NC poll it; the
  // stand-in engines, which nothing serves, do not.
  void set_cancel_token(const CancelToken* token) {
    cancel_token_ = token;
    cancel_interval_ = token == nullptr ? CancelToken::kCheckIntervalEvents
                                        : token->check_interval_events();
  }

  // Non-OK once the current document failed (a violated invariant, a
  // tripped cancel token, a failed subtree evaluation).
  const Status& status() const { return status_; }

  // Logical buffered bytes: current and peak (Figures 19/20).
  const MemoryTracker& memory() const { return memory_; }

  // Selected items handed to the emit rule, over every document so far.
  uint64_t items_emitted() const { return items_emitted_; }

 protected:
  StreamingEngine(xpath::OutputKind output_kind, ResultSink* sink)
      : output_kind_(output_kind), aggregator_(output_kind), sink_(sink) {}

  // Sampled poll of the cancel token: true (with status_ set) when the
  // token has tripped. The common case is one pointer test and one
  // increment; the atomic load happens only on sampled events.
  bool CheckCancelSampled() {
    if (cancel_token_ == nullptr || ++cancel_tick_ < cancel_interval_) {
      return false;
    }
    cancel_tick_ = 0;
    Status cancel_status = cancel_token_->Check();
    if (cancel_status.ok()) return false;
    status_ = std::move(cancel_status);
    return true;
  }

  // The emit rule of Section 4.4: a selected item goes to the sink, or,
  // for an aggregation, updates the statistics buffer, which reports
  // its running value.
  void EmitItem(std::string_view value) {
    ++items_emitted_;
    if (!xpath::IsAggregation(output_kind_)) {
      sink_->OnItem(value);
    } else if (aggregator_.Update(value)) {
      EmitRunningAggregate();
    }
  }

  // Reports the statistics buffer's running value, once it is defined.
  void EmitRunningAggregate() {
    std::optional<double> current = aggregator_.Current();
    if (current.has_value()) sink_->OnAggregateUpdate(*current);
  }

  // At the end of a document: the aggregation's final value.
  void EmitFinalAggregate() {
    if (xpath::IsAggregation(output_kind_)) {
      sink_->OnAggregateFinal(aggregator_.Final());
    }
  }

  const xpath::OutputKind output_kind_;
  Aggregator aggregator_;
  MemoryTracker memory_;
  Status status_;

 private:
  ResultSink* const sink_;  // not owned
  const CancelToken* cancel_token_ = nullptr;
  uint32_t cancel_tick_ = 0;
  uint32_t cancel_interval_ = CancelToken::kCheckIntervalEvents;
  uint64_t items_emitted_ = 0;
};

// Builds an engine for `query` bound to `sink` (not owned, must outlive
// the engine), or fails - NotSupported when the engine cannot evaluate
// the query.
using EngineFactory = Result<std::unique_ptr<StreamingEngine>> (*)(
    const xpath::Query& query, ResultSink* sink);

// The EngineFactory of `Engine`: its own static Create, upcast.
template <typename Engine>
Result<std::unique_ptr<StreamingEngine>> CreateEngine(
    const xpath::Query& query, ResultSink* sink) {
  XSQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                       Engine::Create(query, sink));
  return std::unique_ptr<StreamingEngine>(std::move(engine));
}

}  // namespace xsq::core

#endif  // XSQ_CORE_STREAMING_ENGINE_H_
