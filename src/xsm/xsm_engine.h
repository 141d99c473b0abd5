// XSM-style chained-transducer engine: a stand-in for the XML Stream
// Machine of Ludascher, Mukhopadhyay & Papakonstantinou (VLDB 2002).
//
// The paper could not include XSM in its empirical study ("a release
// version of XSM was unavailable at the time of writing"); this module
// makes that comparison possible. It follows the XSM architecture the
// paper describes: the query is decomposed into one transducer per
// location step, arranged in a chain where the output token stream of
// one machine is the input of the next. Each stage selects the elements
// matching its step among the children of its input stream's top-level
// elements, evaluates its predicate, and forwards accepted subtrees.
//
// The architecture differences the paper criticizes are reproduced
// deliberately:
//   * tokens are materialized and copied between stages (XSM's
//     inter-machine queues), unlike XSQ's single shared event pass;
//   * a stage with an unresolved predicate buffers the entire candidate
//     subtree at its queue, so late-deciding predicates cost one full
//     copy per chained stage rather than XSQ's single shared item;
//   * closures are not supported (the paper: "XSM does not handle
//     queries with aggregations and closures"); we do keep aggregations
//     in the output collector for comparability with XSQ-NC.
#ifndef XSQ_XSM_XSM_ENGINE_H_
#define XSQ_XSM_XSM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "xml/events.h"
#include "xpath/ast.h"

namespace xsq::xsm {

// A materialized SAX token flowing through the transducer chain.
struct Token {
  enum class Type : uint8_t { kBegin, kEnd, kText };

  Type type;
  std::string tag;                               // begin/end
  std::vector<xml::OwnedAttribute> attributes;   // begin (owned: tokens
                                                 // queue across stages)
  std::string text;                              // text

  size_t ApproxBytes() const;
};

class XsmEngine final : public core::StreamingEngine {
 public:
  // Fails with NotSupported for queries with closure axes.
  static Result<std::unique_ptr<XsmEngine>> Create(const xpath::Query& query,
                                                   core::ResultSink* sink);

  ~XsmEngine() override;  // out of line: Stage/OutputCollector are opaque

  void OnBegin(std::string_view tag,
               const std::vector<xml::Attribute>& attributes,
               int depth) override;
  void OnEnd(std::string_view tag, int depth) override;
  void OnText(std::string_view enclosing_tag, std::string_view text,
              int depth) override;
  void OnDocumentEnd() override;

  void Reset() override;

  // memory() counts the bytes buffered across every stage's queue;
  // this counts the tokens copied between stages (the chaining
  // overhead).
  uint64_t tokens_forwarded() const { return tokens_forwarded_; }

 private:
  class Stage;
  class OutputCollector;

  XsmEngine(xpath::Query query, core::ResultSink* sink);

  xpath::Query query_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::unique_ptr<OutputCollector> collector_;
  uint64_t tokens_forwarded_ = 0;
};

}  // namespace xsq::xsm

#endif  // XSQ_XSM_XSM_ENGINE_H_
