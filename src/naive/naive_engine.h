// The "direct solution" strawman of paper Section 3.1: a streaming
// processor that side-steps predicate bookkeeping by buffering whole
// candidate subtrees.
//
// Whenever an element that can match the first location step begins, the
// engine materializes its entire subtree as a mini DOM; when the subtree
// closes it runs the reference DOM evaluator on it and emits the
// results. This is simple and correct, but it buffers the whole
// candidate element even when only a tiny fraction of it is relevant -
// the contrast the paper draws with XSQ, which "buffers only data that
// must be buffered by any streaming XPath processor". The memory figures
// (19/20) show the gap.
//
// Its event-order behavior is also Joost/STX-like: results of a
// candidate are only available at the candidate's end tag.
#ifndef XSQ_NAIVE_NAIVE_ENGINE_H_
#define XSQ_NAIVE_NAIVE_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "dom/node.h"
#include "xml/events.h"
#include "xpath/ast.h"

namespace xsq::naive {

class NaiveEngine final : public core::StreamingEngine {
 public:
  static Result<std::unique_ptr<NaiveEngine>> Create(
      const xpath::Query& query, core::ResultSink* sink);

  void OnBegin(std::string_view tag,
               const std::vector<xml::Attribute>& attributes,
               int depth) override;
  void OnEnd(std::string_view tag, int depth) override;
  void OnText(std::string_view enclosing_tag, std::string_view text,
              int depth) override;
  void OnDocumentEnd() override;

  void Reset() override;

 private:
  NaiveEngine(xpath::Query query, core::ResultSink* sink);

  bool IsCandidate(std::string_view tag, int depth) const;
  void EvaluateCandidate();

  xpath::Query query_;

  // Candidate subtree being buffered (null when outside a candidate).
  std::unique_ptr<dom::Document> buffering_;
  std::vector<dom::Node*> build_stack_;
  int candidate_depth_ = 0;
};

}  // namespace xsq::naive

#endif  // XSQ_NAIVE_NAIVE_ENGINE_H_
