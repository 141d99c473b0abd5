#include "service/session.h"

#include "common/failpoints.h"
#include "obs/timer.h"
#include "tape/replayer.h"

namespace xsq::service {

namespace {
// Events replayed between budget checks. Large enough that the check is
// noise, small enough that a runaway document trips the budget promptly.
constexpr size_t kReplayBatchEvents = 8192;
}  // namespace

Result<std::unique_ptr<Session>> Session::Create(
    std::shared_ptr<const core::CompiledPlan> plan, size_t memory_budget,
    ServiceStats* stats, ServiceMetrics* metrics,
    const xml::ParserLimits& parser_limits, uint32_t cancel_check_events) {
  XSQ_ASSIGN_OR_RETURN(std::unique_ptr<core::StreamingQuery> query,
                       core::StreamingQuery::Open(std::move(plan)));
  return std::unique_ptr<Session>(new Session(std::move(query), memory_budget,
                                              stats, metrics, parser_limits,
                                              cancel_check_events));
}

Session::Session(std::unique_ptr<core::StreamingQuery> query,
                 size_t memory_budget, ServiceStats* stats,
                 ServiceMetrics* metrics,
                 const xml::ParserLimits& parser_limits,
                 uint32_t cancel_check_events)
    : memory_budget_(memory_budget),
      stats_(stats),
      metrics_(metrics),
      cancel_(cancel_check_events),
      query_(std::move(query)) {
  // With metrics attached the session doubles as the query's phase
  // listener; per-chunk samples accumulate into phases_ and flush to the
  // histograms once per document.
  if (metrics_ != nullptr) query_->set_phase_listener(this);
  query_->set_parser_limits(parser_limits);
  query_->set_cancel_token(&cancel_);
}

void Session::OnPhaseSample(uint64_t parse_ns, uint64_t automaton_ns,
                            uint64_t buffer_ns) {
  phases_.parse_ns += parse_ns;
  phases_.automaton_ns += automaton_ns;
  phases_.buffer_ns += buffer_ns;
}

void Session::RecordPhaseHistograms() {
  if (metrics_ == nullptr) return;
  // A document that failed before its Close sample carries no split;
  // record nothing rather than zeros.
  if (phases_.parse_ns == 0 && phases_.automaton_ns == 0 &&
      phases_.buffer_ns == 0) {
    return;
  }
  metrics_->phase_parse_us->Record(obs::NanosToMicros(phases_.parse_ns));
  metrics_->phase_automaton_us->Record(
      obs::NanosToMicros(phases_.automaton_ns));
  metrics_->phase_buffer_us->Record(obs::NanosToMicros(phases_.buffer_ns));
}

Session::~Session() {
  // Return this session's share of the global buffered-bytes gauge.
  if (stats_ != nullptr) {
    int64_t buffered = static_cast<int64_t>(
        buffered_.load(std::memory_order_relaxed));
    stats_->Add(Stat::engine_buffered_bytes, -buffered);
  }
}

Status Session::AfterEngineStep(Status step) {
  // Gauge first: buffered bytes move whether or not the step succeeded.
  size_t now_buffered = query_->buffered_bytes();
  size_t previous =
      buffered_.exchange(now_buffered, std::memory_order_relaxed);
  if (stats_ != nullptr && now_buffered != previous) {
    stats_->Add(Stat::engine_buffered_bytes,
                static_cast<int64_t>(now_buffered) -
                    static_cast<int64_t>(previous));
  }

  if (step.ok() && memory_budget_ > 0 && now_buffered > memory_budget_) {
    step = Status::ResourceExhausted(
        "session memory budget exceeded: buffering " +
        std::to_string(now_buffered) + " bytes, budget " +
        std::to_string(memory_budget_));
  }

  uint64_t new_items = 0;
  bool newly_failed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (std::optional<std::string> item = query_->NextItem()) {
      pending_items_.push_back(std::move(*item));
      ++new_items;
    }
    current_aggregate_ = query_->current_aggregate();
    final_aggregate_ = query_->final_aggregate();
    newly_failed = status_.ok() && !step.ok();
    status_ = step;
  }
  items_produced_.fetch_add(new_items, std::memory_order_relaxed);
  if (stats_ != nullptr && new_items > 0) {
    stats_->Add(Stat::items_emitted, new_items);
  }

  if (newly_failed) {
    if (stats_ != nullptr) {
      switch (step.code()) {
        case StatusCode::kCancelled:
          stats_->Add(Stat::cancelled);
          break;
        case StatusCode::kDeadlineExceeded:
          stats_->Add(Stat::deadline_exceeded);
          break;
        case StatusCode::kLimitExceeded:
          stats_->Add(Stat::limit_rejected);
          break;
        case StatusCode::kDataCorruption:
          stats_->Add(Stat::tape_corrupt);
          break;
        default:
          break;
      }
    }
    // A cancelled or timed-out request is abandoned, not resumable:
    // drop the engine's buffered items right now so a session parked in
    // the failed state does not pin memory against the global budget.
    // status_ keeps the failure; Reset() reopens the session as usual.
    if (step.code() == StatusCode::kCancelled ||
        step.code() == StatusCode::kDeadlineExceeded) {
      query_->Reset();
      size_t previous = buffered_.exchange(0, std::memory_order_relaxed);
      if (stats_ != nullptr && previous != 0) {
        stats_->Add(Stat::engine_buffered_bytes,
                    -static_cast<int64_t>(previous));
      }
    }
  }
  return step;
}

Status Session::Push(std::string_view chunk) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok()) return status_;
  }
  if (closed()) return Status::InvalidArgument("Push on closed session");
  XSQ_FAILPOINT("service.session.push_fault",
                return AfterEngineStep(Status::Internal(
                    "injected worker fault evaluating chunk")));
  return AfterEngineStep(query_->Push(chunk));
}

Status Session::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok()) return status_;
  }
  if (closed()) return Status::OK();
  Status step = AfterEngineStep(query_->Close());
  if (step.ok()) closed_.store(true, std::memory_order_relaxed);
  RecordPhaseHistograms();
  return step;
}

Status Session::RunTape(const tape::Tape& tape) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok()) return status_;
  }
  if (closed()) return Status::InvalidArgument("RunTape on closed session");

  obs::ScopedTimer replay_timer(metrics_ != nullptr ? metrics_->tape_replay_us
                                                    : nullptr);
  Status step = ReplayTape(tape);
  phases_.replay_ns = replay_timer.ElapsedNanos();
  return step;
}

Status Session::ReplayTape(const tape::Tape& tape) {
  tape::TapeReplayer replayer(tape);
  xml::SaxHandler* handler = query_->event_handler();
  while (replayer.Step(handler, kReplayBatchEvents)) {
    Status step = AfterEngineStep(query_->engine_status());
    if (!step.ok()) return step;
  }
  if (!replayer.status().ok()) return AfterEngineStep(replayer.status());
  Status step = AfterEngineStep(query_->FinishEvents());
  if (step.ok()) closed_.store(true, std::memory_order_relaxed);
  if (stats_ != nullptr) {
    stats_->Add(Stat::tape_replays);
    stats_->Add(Stat::tape_events_replayed, replayer.events_emitted());
  }
  return step;
}

Status Session::Reset() {
  cancel_.Reset();  // clears both the flag and any armed deadline
  query_->Reset();
  phases_ = PhaseTotals();
  closed_.store(false, std::memory_order_relaxed);
  size_t previous = buffered_.exchange(0, std::memory_order_relaxed);
  if (stats_ != nullptr && previous != 0) {
    stats_->Add(Stat::engine_buffered_bytes, -static_cast<int64_t>(previous));
  }
  std::lock_guard<std::mutex> lock(mu_);
  current_aggregate_.reset();
  final_aggregate_.reset();
  status_ = Status::OK();
  return status_;
}

std::vector<std::string> Session::TakeItems() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> items = std::move(pending_items_);
  pending_items_.clear();
  return items;
}

std::optional<double> Session::current_aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_aggregate_;
}

std::optional<double> Session::final_aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return final_aggregate_;
}

Status Session::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace xsq::service
