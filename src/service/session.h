// Session: a long-lived, reusable evaluation of one query over a
// sequence of documents.
//
// A session wraps a StreamingQuery built from a (typically cached)
// CompiledPlan and adds what a server needs around it:
//
//   - an explicit lifecycle:  Open -> Push* -> Close -> Reset -> Push* ...
//     Reset rewinds parser and engine for the next document without
//     recompiling the plan, so the serving hot path never rebuilds an
//     engine.
//   - a per-session memory budget: after every chunk the engine's
//     buffered bytes are checked against the budget; exceeding it fails
//     the session with ResourceExhausted instead of buffering without
//     bound (Koch et al.'s buffer-minimization discipline applied as
//     admission policy).
//   - thread-safe result draining: the streaming side (Push/Close/
//     Reset) is driven by exactly one worker thread at a time, while
//     TakeItems / aggregates / buffered_bytes may be called from any
//     thread concurrently.
//
// The streaming methods themselves are NOT mutually thread-safe; the
// QueryService's per-session FIFO queue guarantees single-threaded,
// in-order delivery per session.
#ifndef XSQ_SERVICE_SESSION_H_
#define XSQ_SERVICE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/cancel_token.h"
#include "core/compiled_plan.h"
#include "core/streaming_query.h"
#include "service/metrics.h"
#include "service/stats.h"
#include "tape/tape.h"

namespace xsq::service {

class Session : private core::PhaseListener {
 public:
  // `memory_budget` bounds the engine's buffered bytes (0 = unlimited).
  // `stats`, if non-null, receives item counts and buffered-bytes gauge
  // deltas; it must outlive the session. `metrics`, if non-null,
  // receives per-document phase samples and tape replay timings (the
  // session attaches itself as the query's PhaseListener); it must also
  // outlive the session.
  // `parser_limits` (default: unlimited) hardens the session's parser
  // against hostile documents; violations fail the session with
  // kLimitExceeded like any other streaming error.
  // `cancel_check_events` sets the engine's cancellation sampling
  // interval (how many SAX events may pass between CancelToken polls);
  // it bounds the latency of Cancel() and deadline detection.
  static Result<std::unique_ptr<Session>> Create(
      std::shared_ptr<const core::CompiledPlan> plan, size_t memory_budget,
      ServiceStats* stats, ServiceMetrics* metrics = nullptr,
      const xml::ParserLimits& parser_limits = {},
      uint32_t cancel_check_events = core::CancelToken::kCheckIntervalEvents);

  ~Session();

  // --- streaming side: one thread at a time ---

  // Feeds the next chunk of the current document. On failure (malformed
  // input, engine error, memory budget exceeded) the session enters the
  // failed state and every later streaming call returns the same error.
  Status Push(std::string_view chunk);

  // Ends the current document. Idempotent once successful.
  Status Close();

  // Evaluates an entire recorded document by replaying `tape` into the
  // engine, then closes the document. Replay happens in bounded event
  // batches with the memory budget re-checked between batches, exactly
  // as Push re-checks per chunk. The session must be fresh (not closed,
  // no bytes pushed); on success it ends in the closed state with
  // results drainable as usual.
  Status RunTape(const tape::Tape& tape);

  // Rewinds for the next document, keeping the compiled plan and
  // clearing any failure. Undrained items from the previous document
  // remain drainable.
  Status Reset();

  // --- any thread ---

  // Cooperative cancellation and deadlines. Safe to call from any
  // thread while a worker streams: the engine observes the token within
  // one sampling interval (CancelToken::kCheckIntervalEvents events)
  // and the session fails with kCancelled / kDeadlineExceeded. The
  // failure frees the engine's buffered bytes immediately (the gauge
  // returns its share) without touching sibling sessions; Reset()
  // clears the token along with the failure.
  void Cancel() { cancel_.Cancel(); }
  void SetDeadlineAfterMs(uint64_t ms) { cancel_.SetDeadlineAfterMs(ms); }
  void ClearDeadline() { cancel_.ClearDeadline(); }
  bool cancelled() const { return cancel_.cancelled(); }

  // Moves out every result item produced so far and not yet taken, in
  // document order.
  std::vector<std::string> TakeItems();

  // Running / final aggregate value, for aggregation queries.
  std::optional<double> current_aggregate() const;
  std::optional<double> final_aggregate() const;

  // Engine-buffered bytes after the most recent streaming call.
  size_t buffered_bytes() const {
    return buffered_.load(std::memory_order_relaxed);
  }

  // Most recent streaming status; non-OK means the session failed and
  // must be Reset() before it can stream again.
  Status status() const;
  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  uint64_t items_produced() const {
    return items_produced_.load(std::memory_order_relaxed);
  }
  const xpath::Query& query() const { return query_->query(); }

  // True when the query runs on the deterministic XSQ-NC engine (the
  // engine-kind label of the latency histograms).
  bool deterministic() const { return query_->uses_deterministic_engine(); }

  // Accumulated parse/automaton/buffer time for the current document,
  // nanoseconds. Only meaningful with metrics attached; written by the
  // streaming thread and intended to be read there too (the slow-query
  // log reads it right after Close or RunTape on the same worker). A
  // replayed document has no parse and no sampled split: its whole
  // RunTape replay is `replay_ns`, with or without metrics.
  struct PhaseTotals {
    uint64_t parse_ns = 0;
    uint64_t automaton_ns = 0;
    uint64_t buffer_ns = 0;
    uint64_t replay_ns = 0;
  };
  PhaseTotals phase_totals() const { return phases_; }

 private:
  Session(std::unique_ptr<core::StreamingQuery> query, size_t memory_budget,
          ServiceStats* stats, ServiceMetrics* metrics,
          const xml::ParserLimits& parser_limits,
          uint32_t cancel_check_events);

  // core::PhaseListener: per-chunk phase sample from the query.
  void OnPhaseSample(uint64_t parse_ns, uint64_t automaton_ns,
                     uint64_t buffer_ns) override;

  // RunTape's replay loop, timed by RunTape.
  Status ReplayTape(const tape::Tape& tape);

  // Harvests new items/aggregates after an engine step, updates the
  // buffered-bytes gauge, and records `step` as the session status.
  Status AfterEngineStep(Status step);

  // Flushes the per-document phase totals into the phase histograms
  // (one sample per served document, mirroring Figure 18).
  void RecordPhaseHistograms();

  const size_t memory_budget_;
  ServiceStats* const stats_;      // may be null
  ServiceMetrics* const metrics_;  // may be null
  core::CancelToken cancel_;       // installed into query_ at creation
  std::unique_ptr<core::StreamingQuery> query_;
  PhaseTotals phases_;  // streaming thread only

  std::atomic<size_t> buffered_{0};
  std::atomic<uint64_t> items_produced_{0};
  std::atomic<bool> closed_{false};

  mutable std::mutex mu_;  // guards the fields below
  std::vector<std::string> pending_items_;
  std::optional<double> current_aggregate_;
  std::optional<double> final_aggregate_;
  Status status_;
};

}  // namespace xsq::service

#endif  // XSQ_SERVICE_SESSION_H_
