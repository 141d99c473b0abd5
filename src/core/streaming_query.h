// StreamingQuery: the one-object facade over parser + engine + sink.
//
// For library users who just want to push bytes and pull results:
//
//   auto q = xsq::core::StreamingQuery::Open("//book[price<20]/title/text()");
//   while (...) {
//     q->Push(next_chunk);
//     while (auto item = q->NextItem()) consume(*item);
//   }
//   q->Close();
//
// Items become available at the earliest moment the engine can prove
// membership, so NextItem drains results incrementally while the
// document is still streaming. Closure-free queries automatically run
// on the faster deterministic XSQ-NC engine; everything else runs on
// XSQ-F.
//
// A StreamingQuery is reusable: Reset() rewinds parser and engine so the
// same compiled query can process another document without recompiling,
// and Open(plan) instantiates one from an already-compiled (typically
// cached) plan, skipping parse and HPDT construction entirely.
#ifndef XSQ_CORE_STREAMING_QUERY_H_
#define XSQ_CORE_STREAMING_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/cancel_token.h"
#include "core/compiled_plan.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace xsq::core {

// Receives phase timing samples from an instrumented StreamingQuery
// (see set_phase_listener). Durations are nanoseconds, split the way
// the paper's Figure 18 decomposes runtime:
//   parse     - SAX tokenization and well-formedness work,
//   automaton - engine transition work driven by begin/end events
//               (HPDT transitions on XSQ-F, stack moves on XSQ-NC),
//   buffer    - text-event work: candidate buffering, predicate
//               evaluation, and item upload.
// Measurement is two-level sampling so the hot path stays within the
// ext_obs overhead bound: every Nth chunk is routed through a timing
// shim (every Mth SAX callback inside it is clocked, the clock's own
// cost subtracted, and scaled), other chunks run the exact
// uninstrumented path. One sample is emitted per document, at Close:
// the sampled-chunk totals scaled by the observed chunks/sampled ratio
// plus the always-timed Close flush. It is an estimate: the sampled
// callbacks stand in for the rest, and the clock reads the shim makes
// are counted as parse.
class PhaseListener {
 public:
  virtual ~PhaseListener() = default;
  virtual void OnPhaseSample(uint64_t parse_ns, uint64_t automaton_ns,
                             uint64_t buffer_ns) = 0;
};

class StreamingQuery {
 public:
  // Parses and compiles `query_text`.
  static Result<std::unique_ptr<StreamingQuery>> Open(
      std::string_view query_text);

  // Instantiates engines from an already-compiled plan (no parse, no
  // HPDT construction). The plan is retained by shared_ptr and may back
  // any number of StreamingQuery instances concurrently.
  static Result<std::unique_ptr<StreamingQuery>> Open(
      std::shared_ptr<const CompiledPlan> plan);

  ~StreamingQuery();

  // Attaches (or with nullptr detaches) a per-phase timing listener.
  // While attached, each Close reports the document's estimated
  // parse/automaton/buffer nanosecond split (see PhaseListener).
  // Must be called between documents (before the first Push, or after
  // Reset); the listener must outlive the query or be detached first.
  //
  // Cost model: detached, the only overhead is one pointer test per
  // Push.
  void set_phase_listener(PhaseListener* listener);

  // Attaches (or with nullptr detaches) a cooperative cancellation
  // token. Not owned; must outlive the query or be detached first.
  // Push and Close check it once per chunk, and the engine polls it
  // every CancelToken::kCheckIntervalEvents SAX events, so a tripped
  // token stops evaluation mid-chunk — a cancelled or past-deadline
  // query fails with kCancelled/kDeadlineExceeded within one sampling
  // interval, not at the next chunk boundary. Detached, the only cost
  // is one null test per chunk and per sampled event.
  void set_cancel_token(const CancelToken* token);

  // Replaces the parser's resource limits (see xml::ParserLimits).
  // Call between documents.
  void set_parser_limits(const xml::ParserLimits& limits);

  // Feeds the next chunk of the document (any chunk boundaries).
  Status Push(std::string_view chunk);

  // Declares end of input. Idempotent after success.
  Status Close();

  // --- event-level ingestion (tape replay) ---
  //
  // Instead of pushing bytes through the parser, a caller holding an
  // already-parsed event stream (a tape::TapeReplayer, a tee of another
  // parse) can deliver events straight to the engine. The stream must
  // be a complete, well-formed document sequence ending in
  // OnDocumentEnd; mixing event delivery and Push on one document is
  // unsupported.

  // The engine as a SaxHandler. Invalid to call after Close() until
  // Reset().
  xml::SaxHandler* event_handler();

  // Engine health between event batches (what Push would have
  // returned).
  Status engine_status() const;

  // Marks the document complete after direct event delivery; afterwards
  // the query behaves exactly as after Close().
  Status FinishEvents();

  // Rewinds parser, engine, and collected results so the same compiled
  // query can process a new document. Valid in any state, including
  // after a parse error or Close().
  void Reset();

  // Pops the next available result item, in document order; nullopt
  // when none is available yet (more input may produce more). The item
  // is moved out: the query keeps no copy.
  std::optional<std::string> NextItem();

  // For aggregation queries: the latest running value (updated as the
  // stream progresses), and the final value after Close().
  std::optional<double> current_aggregate() const {
    return sink_.latest_aggregate;
  }
  std::optional<double> final_aggregate() const { return sink_.aggregate; }

  const xpath::Query& query() const { return plan_->query; }
  const std::shared_ptr<const CompiledPlan>& plan() const { return plan_; }
  bool uses_deterministic_engine() const { return plan_->deterministic; }

  // Peak buffered bytes so far (the engine's accounted memory).
  size_t peak_buffered_bytes() const;

  // Bytes this query is holding right now: buffered items whose
  // predicates are still undecided, plus the parser's retained bytes
  // (unconsumed chunk tail and live arena storage). The service layer's
  // memory budgets are enforced against this.
  size_t buffered_bytes() const;

 private:
  class PhaseShim;  // sampled SaxHandler timing wrapper

  // Every item until NextItem hands it out, but of the running
  // aggregate only the latest value: an aggregation over N matches
  // holds one double, not N.
  struct Sink : ResultSink {
    void OnItem(std::string_view value) override { items.emplace_back(value); }
    void OnAggregateUpdate(double value) override { latest_aggregate = value; }
    void OnAggregateFinal(std::optional<double> value) override {
      aggregate = value;
    }

    std::vector<std::string> items;
    std::optional<double> latest_aggregate;
    std::optional<double> aggregate;
  };

  explicit StreamingQuery(std::shared_ptr<const CompiledPlan> plan);

  std::shared_ptr<const CompiledPlan> plan_;
  Sink sink_;
  size_t next_item_ = 0;  // items before this index were handed out
  // XSQ-NC when the plan is deterministic, else XSQ-F.
  std::unique_ptr<StreamingEngine> engine_;
  std::unique_ptr<xml::SaxParser> parser_;
  const CancelToken* cancel_token_ = nullptr;
  PhaseListener* phase_listener_ = nullptr;
  std::unique_ptr<PhaseShim> phase_shim_;
  // Chunk-level sampling state: how many chunks this document has
  // seen / how many went through the shim, and the unscaled phase
  // totals of the sampled ones (scaled out at Close).
  uint32_t chunk_tick_ = 0;
  uint32_t sampled_chunks_ = 0;
  uint64_t phase_parse_ns_ = 0;
  uint64_t phase_automaton_ns_ = 0;
  uint64_t phase_buffer_ns_ = 0;
  bool closed_ = false;
};

}  // namespace xsq::core

#endif  // XSQ_CORE_STREAMING_QUERY_H_
