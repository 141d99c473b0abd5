// XSQ-F: the full streaming XPath engine of the paper - closures,
// multiple predicates, and aggregations over a single pass of the input.
//
// The engine consumes the depth-extended SAX stream and runs the HPDT.
// An HPDT configuration (state, depth vector) is materialized as a
// *match instance*: the chain of elements from the root match down to a
// match is exactly the depth vector, so buffer-group operations keyed by
// depth vectors (Section 4.3) become operations on the items a match
// instance holds:
//
//   enqueue  -> a new shared Item claimed by every live chain and held
//               by each chain's lowest not-yet-TRUE match
//   upload   -> when a match turns TRUE its items move to the nearest
//               ancestor still in NA ("nearest ancestor with this BPDT in
//               its right subtree"), or are selected if every ancestor is
//               TRUE (the flush of true-spine BPDTs)
//   clear    -> when an element ends with a match still NA, the predicate
//               is false and the match drops one claim per held item
//   flush    -> selected items are emitted from the global FIFO head once
//               resolved and complete, giving document order and
//               duplicate avoidance ("mark as output" of Section 4.3)
//
// XSQ guarantees to buffer only data that must be buffered by any
// streaming XPath processor: an item exists only between the moment its
// value streams past and the moment its last relevant predicate is
// decided. The MemoryTracker makes this measurable (Figures 19/20).
#ifndef XSQ_CORE_ENGINE_H_
#define XSQ_CORE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/hpdt.h"
#include "core/item.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "core/trace.h"
#include "xml/events.h"
#include "xpath/ast.h"

namespace xsq::core {

struct EngineStats {
  uint64_t matches_created = 0;
  uint64_t peak_live_matches = 0;
  uint64_t items_created = 0;
  uint64_t items_discarded = 0;
};

class XsqEngine final : public StreamingEngine {
 public:
  // Compiles the query into an HPDT (one per union branch) and binds
  // the engine to `sink` (not owned, must outlive the engine).
  static Result<std::unique_ptr<XsqEngine>> Create(const xpath::Query& query,
                                                   ResultSink* sink);

  // Instantiates an engine over already-compiled HPDTs (main path first,
  // then union branches), e.g. from a cached CompiledPlan. The HPDTs are
  // read-only at run time, so one set may back many engines at once.
  static Result<std::unique_ptr<XsqEngine>> Create(
      std::vector<std::shared_ptr<const Hpdt>> hpdts, ResultSink* sink);

  // SaxHandler interface: feed this engine to a SaxParser.
  void OnBegin(std::string_view tag,
               const std::vector<xml::Attribute>& attributes,
               int depth) override;
  void OnEnd(std::string_view tag, int depth) override;
  void OnText(std::string_view enclosing_tag, std::string_view text,
              int depth) override;
  void OnDocumentEnd() override;

  void Reset() override;

  // Installs an observer for the paper's buffer operations (Sections
  // 3.3/4.3). Pass nullptr to disable. Not owned; must outlive the
  // engine while installed.
  void set_trace(TraceListener* trace) { trace_ = trace; }

  // The HPDT of the first (or only) union branch.
  const Hpdt& hpdt() const { return *hpdts_.front(); }
  size_t branch_count() const { return hpdts_.size(); }
  const EngineStats& stats() const { return stats_; }

 private:
  // An HPDT configuration: one way the current element matches the
  // query prefix. `parent` chains to the step-(layer-1) match; parents
  // outlive children because elements nest.
  struct Match {
    const Bpdt* bpdt = nullptr;
    Match* parent = nullptr;
    int branch = 0;             // union branch this match belongs to
    uint32_t pending_mask = 0;  // bit per not-yet-satisfied predicate
    std::vector<std::shared_ptr<Item>> held;  // this BPDT's buffer group

    bool satisfied() const { return pending_mask == 0; }
  };

  // Per open element (the virtual document node is entry 0).
  struct StackEntry {
    std::vector<std::unique_ptr<Match>> matches;
    std::vector<Match*> last_step_matches;  // matches at the output step
    std::shared_ptr<Item> aggregate_item;   // one per element, aggregations
    // Steps for which this element already has a true-spine match with
    // no pending predicates. Further chains reaching the same (step,
    // element) through other fully-TRUE ancestors are behaviorally
    // identical, so they are collapsed into one match. This turns the
    // exponential chain blowup of queries like //a//a//a on deeply
    // recursive data into linear work without changing any result.
    uint64_t resolved_spine_steps = 0;
  };

  // An element item currently being serialized (catchall output).
  struct ActiveSerialization {
    std::shared_ptr<Item> item;
    int begin_depth;
  };

  XsqEngine(std::vector<std::shared_ptr<const Hpdt>> hpdts, ResultSink* sink);

  // Flat index of (branch, step) into active_by_step_ and the
  // resolved-spine bitmask.
  size_t StepSlot(int branch, int step) const {
    return branch_offsets_[static_cast<size_t>(branch)] +
           static_cast<size_t>(step);
  }

  void SatisfyPredicate(Match* match, uint32_t bit);
  void Trace(BufferOp::Kind kind, const Bpdt* bpdt, const Item* item);
  Match* LowestUnsatisfied(Match* match);
  std::shared_ptr<Item> MakeItem();
  void AttachItem(const std::shared_ptr<Item>& item, StackEntry* entry);
  void AppendToItem(Item* item, std::string_view data);
  void EmitReadyItems();
  void AppendToSerializations(std::string_view data);

  std::vector<std::shared_ptr<const Hpdt>> hpdts_;  // one per union branch
  std::vector<size_t> branch_offsets_;         // into per-(branch,step) slots
  size_t total_step_slots_ = 0;

  std::vector<StackEntry> stack_;
  std::vector<std::vector<Match*>> active_by_step_;  // closure sources
  std::deque<std::shared_ptr<Item>> output_queue_;
  std::vector<ActiveSerialization> serializations_;
  uint64_t next_sequence_ = 0;
  uint64_t live_matches_ = 0;

  TraceListener* trace_ = nullptr;
  EngineStats stats_;
};

// Convenience: parse `query_text`, stream `xml_text` through XSQ-F, and
// collect the results.
struct QueryResult {
  std::vector<std::string> items;
  std::optional<double> aggregate;
};
Result<QueryResult> RunQuery(std::string_view query_text,
                             std::string_view xml_text);

}  // namespace xsq::core

#endif  // XSQ_CORE_ENGINE_H_
