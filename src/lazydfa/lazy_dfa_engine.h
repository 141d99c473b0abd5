// Lazy-DFA streaming engine for predicate-free path queries: the stand-in
// for XMLTK [Avila-Campillo et al. 2002] in the paper's study.
//
// The location path (closures and wildcards allowed, no predicates) is a
// regular expression over root-to-element tag paths. It compiles to an
// NFA whose states are step prefixes; the engine then runs the classic
// lazy subset construction: DFA states (sets of NFA states) and their
// transitions are materialized only when the input actually reaches
// them, exactly the XMLTK trade: deterministic probing (fast) in
// exchange for automaton memory that grows with the observed tag paths.
//
// Because there are no predicates, membership of an element in the
// result is known the moment its begin event arrives, so nothing but the
// in-flight element serialization is ever buffered.
#ifndef XSQ_LAZYDFA_LAZY_DFA_ENGINE_H_
#define XSQ_LAZYDFA_LAZY_DFA_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "xml/events.h"
#include "xpath/ast.h"

namespace xsq::lazydfa {

class LazyDfaEngine final : public core::StreamingEngine {
 public:
  // Fails with NotSupported when the query has predicates or an
  // aggregation output (XMLTK supports neither, Figure 14).
  static Result<std::unique_ptr<LazyDfaEngine>> Create(
      const xpath::Query& query, core::ResultSink* sink);

  void OnBegin(std::string_view tag,
               const std::vector<xml::Attribute>& attributes,
               int depth) override;
  void OnEnd(std::string_view tag, int depth) override;
  void OnText(std::string_view enclosing_tag, std::string_view text,
              int depth) override;
  void OnDocumentEnd() override;

  void Reset() override;

  // Number of DFA states materialized so far (the lazy-DFA memory cost).
  size_t dfa_state_count() const { return dfa_states_.size(); }

 private:
  // One materialized DFA state: a set of NFA states (bitmask over step
  // prefixes 0..n) plus its transition cache.
  struct DfaState {
    uint64_t nfa_set = 0;
    bool accepting = false;
    std::unordered_map<std::string, int> transitions;
  };

  struct PendingElement {
    std::string value;
    bool complete = false;
  };

  LazyDfaEngine(xpath::Query query, core::ResultSink* sink);

  int Transition(int state_id, std::string_view tag);
  int InternState(uint64_t nfa_set);
  void EmitCompleted();

  xpath::Query query_;
  // Union branches flattened into one NFA: branch b owns the state bits
  // [offsets_[b], offsets_[b] + steps.size()], accepting at the last.
  std::vector<const std::vector<xpath::LocationStep>*> branches_;
  std::vector<int> offsets_;

  std::vector<DfaState> dfa_states_;
  std::unordered_map<uint64_t, int> state_ids_;
  std::vector<int> state_stack_;    // DFA state per open element
  std::vector<char> accept_stack_;  // is each open element a match

  // Catchall output: matched elements being serialized (they can nest
  // with closures; emission is FIFO to preserve document order).
  std::deque<std::unique_ptr<PendingElement>> pending_elements_;
  std::vector<PendingElement*> open_serializations_;
};

}  // namespace xsq::lazydfa

#endif  // XSQ_LAZYDFA_LAZY_DFA_ENGINE_H_
