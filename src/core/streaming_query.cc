#include "core/streaming_query.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/failpoints.h"
#include "core/engine.h"
#include "core/engine_nc.h"

namespace xsq::core {

namespace {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The cost of one NowNanos() call, measured once per process: the
// median of five runs of 1000 back-to-back reads. A clocked callback's
// interval includes about one read.
uint64_t ClockCostNs() {
  static const uint64_t cost = [] {
    constexpr int kReads = 1000;
    std::array<uint64_t, 5> runs{};
    for (uint64_t& run : runs) {
      uint64_t start = NowNanos();
      for (int i = 0; i < kReads; ++i) NowNanos();
      run = (NowNanos() - start) / kReads;
    }
    std::sort(runs.begin(), runs.end());
    return runs[runs.size() / 2];
  }();
  return cost;
}

// One chunk in this many is fully timed; the estimate is scaled back up.
constexpr uint32_t kChunkSampleEvery = 32;

}  // namespace

// Times the engine's share of a sampled chunk: every kSampleEvery-th
// SAX callback is bracketed with clock reads, and its duration, less
// the cost of the clock read it includes, is scaled by kSampleEvery.
// Unsubtracted, that one read (30-40 ns on a 4-vCPU VM, against about
// 15 ns per XSQ-NC event) would be scaled by kSampleEvery too and
// overstate the engine 2-3x. Begin/end events drive automaton
// transitions; text events drive buffering and predicate work (the
// Figure 18 split).
//
// The shim only sees every kChunkSampleEvery-th chunk (Push swaps the
// parser's handler just for those), so the steady-state per-event cost
// of instrumentation is zero on 31 of 32 chunks and two clock reads per
// 128 events on the 32nd — that is what keeps ext_obs within its 3%
// overhead bound. Per-event forwarding through an always-on wrapper
// measured ~7% on the DBLP path, far over budget. Both grains were
// doubled (64 -> 128 events, 16 -> 32 chunks) when the SWAR/SSE2 scan
// loop made events 1.65-2x cheaper: the same wall-clock sampling
// cadence now spans twice the events, and the clock reads would
// otherwise be a larger *fraction* of the cheaper event loop.
class StreamingQuery::PhaseShim : public xml::SaxHandler {
 public:
  static constexpr uint32_t kSampleEvery = 128;

  explicit PhaseShim(xml::SaxHandler* inner)
      : inner_(inner), clock_ns_(ClockCostNs()) {}

  void OnDocumentBegin() override { inner_->OnDocumentBegin(); }
  void OnDocumentEnd() override { inner_->OnDocumentEnd(); }
  void OnDoctype(std::string_view name,
                 std::string_view internal_subset) override {
    inner_->OnDoctype(name, internal_subset);
  }

  void OnBegin(std::string_view tag,
               const std::vector<xml::Attribute>& attributes,
               int depth) override {
    if (++tick_ % kSampleEvery == 0) {
      uint64_t start = NowNanos();
      inner_->OnBegin(tag, attributes, depth);
      automaton_ns_ += Scaled(NowNanos() - start);
    } else {
      inner_->OnBegin(tag, attributes, depth);
    }
  }

  void OnEnd(std::string_view tag, int depth) override {
    if (++tick_ % kSampleEvery == 0) {
      uint64_t start = NowNanos();
      inner_->OnEnd(tag, depth);
      automaton_ns_ += Scaled(NowNanos() - start);
    } else {
      inner_->OnEnd(tag, depth);
    }
  }

  void OnText(std::string_view enclosing_tag, std::string_view text,
              int depth) override {
    if (++tick_ % kSampleEvery == 0) {
      uint64_t start = NowNanos();
      inner_->OnText(enclosing_tag, text, depth);
      buffer_ns_ += Scaled(NowNanos() - start);
    } else {
      inner_->OnText(enclosing_tag, text, depth);
    }
  }

  // Moves out and clears the accumulated (scaled) handler durations.
  void TakePhases(uint64_t* automaton_ns, uint64_t* buffer_ns) {
    *automaton_ns = automaton_ns_;
    *buffer_ns = buffer_ns_;
    automaton_ns_ = 0;
    buffer_ns_ = 0;
  }

  void ResetCounters() {
    tick_ = 0;
    automaton_ns_ = 0;
    buffer_ns_ = 0;
  }

 private:
  // One clocked interval less its clock read, standing for the
  // kSampleEvery callbacks it samples.
  uint64_t Scaled(uint64_t elapsed_ns) const {
    return elapsed_ns > clock_ns_ ? (elapsed_ns - clock_ns_) * kSampleEvery
                                  : 0;
  }

  xml::SaxHandler* inner_;
  const uint64_t clock_ns_;
  uint32_t tick_ = 0;
  uint64_t automaton_ns_ = 0;
  uint64_t buffer_ns_ = 0;
};

StreamingQuery::StreamingQuery(std::shared_ptr<const CompiledPlan> plan)
    : plan_(std::move(plan)) {}

StreamingQuery::~StreamingQuery() = default;

Result<std::unique_ptr<StreamingQuery>> StreamingQuery::Open(
    std::string_view query_text) {
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                       CompilePlan(query_text));
  return Open(std::move(plan));
}

Result<std::unique_ptr<StreamingQuery>> StreamingQuery::Open(
    std::shared_ptr<const CompiledPlan> plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  XSQ_FAILPOINT("core.engine.alloc_fail",
                return Status::ResourceExhausted(
                    "injected engine allocation failure"));
  auto streaming_query =
      std::unique_ptr<StreamingQuery>(new StreamingQuery(std::move(plan)));
  const CompiledPlan& compiled = *streaming_query->plan_;
  ResultSink* sink = &streaming_query->sink_;
  if (compiled.deterministic) {
    XSQ_ASSIGN_OR_RETURN(streaming_query->engine_,
                         CreateEngine<XsqNcEngine>(compiled.query, sink));
  } else {
    XSQ_ASSIGN_OR_RETURN(std::unique_ptr<XsqEngine> engine,
                         XsqEngine::Create(compiled.hpdts, sink));
    streaming_query->engine_ = std::move(engine);
  }
  streaming_query->parser_ =
      std::make_unique<xml::SaxParser>(streaming_query->engine_.get());
  return streaming_query;
}

void StreamingQuery::set_cancel_token(const CancelToken* token) {
  cancel_token_ = token;
  engine_->set_cancel_token(token);
}

void StreamingQuery::set_parser_limits(const xml::ParserLimits& limits) {
  parser_->set_limits(limits);
}

void StreamingQuery::set_phase_listener(PhaseListener* listener) {
  phase_listener_ = listener;
  if (listener != nullptr && phase_shim_ == nullptr) {
    phase_shim_ = std::make_unique<PhaseShim>(engine_.get());
  }
  if (phase_shim_ != nullptr) phase_shim_->ResetCounters();
  chunk_tick_ = 0;
  sampled_chunks_ = 0;
  phase_parse_ns_ = phase_automaton_ns_ = phase_buffer_ns_ = 0;
  // The parser stays pointed at the engine; Push swaps in the shim only
  // for sampled chunks. Valid between documents only.
  parser_->set_handler(engine_.get());
}

Status StreamingQuery::Push(std::string_view chunk) {
  if (closed_) return Status::Internal("Push after Close");
  if (cancel_token_ != nullptr) {
    XSQ_RETURN_IF_ERROR(cancel_token_->Check());  // chunk boundary
  }
  // Sampled chunk: route events through the phase shim, wall-time the
  // Feed, and accumulate the unscaled split; Close scales it by the
  // document's actual chunks/sampled ratio and emits one sample (a
  // fixed scale here would overstate short documents 32x). Unsampled
  // chunks run the exact bare path and pay one increment and a branch.
  if (phase_listener_ != nullptr && chunk_tick_++ % kChunkSampleEvery == 0) {
    parser_->set_handler(phase_shim_.get());
    uint64_t start = NowNanos();
    Status fed = parser_->Feed(chunk);
    uint64_t total_ns = NowNanos() - start;
    parser_->set_handler(engine_.get());
    uint64_t automaton_ns = 0;
    uint64_t buffer_ns = 0;
    phase_shim_->TakePhases(&automaton_ns, &buffer_ns);
    uint64_t handler_ns = automaton_ns + buffer_ns;
    ++sampled_chunks_;
    phase_automaton_ns_ += automaton_ns;
    phase_buffer_ns_ += buffer_ns;
    phase_parse_ns_ += total_ns > handler_ns ? total_ns - handler_ns : 0;
    XSQ_RETURN_IF_ERROR(fed);
    return engine_->status();
  }
  XSQ_RETURN_IF_ERROR(parser_->Feed(chunk));
  return engine_->status();
}

Status StreamingQuery::Close() {
  if (closed_) return Status::OK();
  if (cancel_token_ != nullptr) {
    XSQ_RETURN_IF_ERROR(cancel_token_->Check());  // chunk boundary
  }
  if (phase_listener_ == nullptr) {
    XSQ_RETURN_IF_ERROR(parser_->Finish());
    closed_ = true;
    return engine_->status();
  }
  // Close flushes whatever the parser retained (timed unscaled), then
  // emits the document's one phase sample: the sampled-chunk
  // accumulators scaled by how many chunks each sampled chunk stands
  // in for — the observed ratio, not kChunkSampleEvery, so documents
  // shorter than one sampling period are not overstated.
  parser_->set_handler(phase_shim_.get());
  uint64_t start = NowNanos();
  Status finished = parser_->Finish();
  uint64_t total_ns = NowNanos() - start;
  parser_->set_handler(engine_.get());
  uint64_t automaton_ns = 0;
  uint64_t buffer_ns = 0;
  phase_shim_->TakePhases(&automaton_ns, &buffer_ns);
  uint64_t handler_ns = automaton_ns + buffer_ns;
  uint64_t parse_ns = total_ns > handler_ns ? total_ns - handler_ns : 0;
  double scale = sampled_chunks_ > 0
                     ? static_cast<double>(chunk_tick_) / sampled_chunks_
                     : 1.0;
  phase_listener_->OnPhaseSample(
      parse_ns + static_cast<uint64_t>(phase_parse_ns_ * scale),
      automaton_ns + static_cast<uint64_t>(phase_automaton_ns_ * scale),
      buffer_ns + static_cast<uint64_t>(phase_buffer_ns_ * scale));
  phase_parse_ns_ = phase_automaton_ns_ = phase_buffer_ns_ = 0;
  sampled_chunks_ = 0;
  chunk_tick_ = 0;
  XSQ_RETURN_IF_ERROR(finished);
  closed_ = true;
  return engine_->status();
}

xml::SaxHandler* StreamingQuery::event_handler() {
  // Direct event delivery skips the parser, so there is no parse phase
  // to split out; callers time replay as a whole (see Session::RunTape).
  return engine_.get();
}

Status StreamingQuery::engine_status() const { return engine_->status(); }

Status StreamingQuery::FinishEvents() {
  closed_ = true;
  return engine_status();
}

void StreamingQuery::Reset() {
  parser_->Reset();
  if (phase_shim_ != nullptr) phase_shim_->ResetCounters();
  chunk_tick_ = 0;
  sampled_chunks_ = 0;
  phase_parse_ns_ = phase_automaton_ns_ = phase_buffer_ns_ = 0;
  parser_->set_handler(engine_.get());
  engine_->Reset();
  sink_.items.clear();
  sink_.latest_aggregate.reset();
  sink_.aggregate.reset();
  next_item_ = 0;
  closed_ = false;
}

std::optional<std::string> StreamingQuery::NextItem() {
  if (next_item_ >= sink_.items.size()) return std::nullopt;
  std::string item = std::move(sink_.items[next_item_++]);
  if (next_item_ == sink_.items.size()) {  // drained: drop the husks
    sink_.items.clear();
    next_item_ = 0;
  }
  return item;
}

size_t StreamingQuery::peak_buffered_bytes() const {
  return engine_->memory().peak_bytes();
}

size_t StreamingQuery::buffered_bytes() const {
  // The parser's retained bytes (unconsumed chunk tail + live arenas)
  // count too: an adversarial stream can park memory in an unterminated
  // construct just as well as in undecided predicate buffers.
  return engine_->memory().current_bytes() + parser_->retained_bytes();
}

}  // namespace xsq::core
