#include "service/query_service.h"

#include <cstdio>

#include "common/failpoints.h"
#include "common/strings.h"
#include "obs/timer.h"
#include "tape/recorder.h"

namespace xsq::service {

namespace {
uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since,
                       std::chrono::steady_clock::time_point now) {
  if (now <= since) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - since)
          .count());
}
}  // namespace

QueryService::QueryService(ServiceConfig config)
    : config_(config),
      plan_cache_(config.plan_cache_capacity),
      doc_cache_(config.doc_cache_capacity, config.doc_cache_byte_budget) {
  int workers = config_.num_workers < 1 ? 1 : config_.num_workers;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  pubsub_.set_parser_limits(config_.parser_limits);
  int dispatchers = config_.num_dispatchers < 1 ? 1 : config_.num_dispatchers;
  dispatchers_.reserve(static_cast<size_t>(dispatchers));
  for (int i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !runnable_.empty(); });
    if (runnable_.empty()) {
      if (stopping_) return;  // fully drained
      continue;
    }
    std::shared_ptr<SessionState> state = std::move(runnable_.front());
    runnable_.pop_front();
    // Claim this session's entire queue; Push keeps appending while we
    // evaluate, and the re-check below picks those up.
    std::deque<WorkItem> batch = std::move(state->queue);
    state->queue.clear();
    lock.unlock();

    std::chrono::steady_clock::time_point claimed =
        std::chrono::steady_clock::now();
    for (WorkItem& item : batch) {
      metrics_.queue_wait_us->Record(ElapsedMicros(item.enqueued, claimed));
      if (item.kind == WorkItem::Kind::kChunk) {
        // Failed sessions swallow their remaining queued chunks (the
        // error is already recorded; Close reports it).
        state->session->Push(item.chunk);
        stats_.Add(Stat::chunks_processed);
        stats_.Add(Stat::bytes_consumed, item.chunk.size());
        metrics_.RecordChunkLatency(
            ElapsedMicros(item.enqueued, std::chrono::steady_clock::now()),
            state->session->deterministic());
      } else {
        state->session->Close();
        if (state->doc_started) {
          uint64_t elapsed_us = ElapsedMicros(
              state->doc_start, std::chrono::steady_clock::now());
          metrics_.RecordRequestLatency(elapsed_us,
                                        state->session->deterministic());
          exemplars_.Observe(elapsed_us, state->session->query().ToString());
          MaybeLogSlowQuery(*state, elapsed_us);
        }
      }
    }

    lock.lock();
    if (!state->queue.empty()) {
      runnable_.push_back(state);  // more work arrived while evaluating
    } else {
      state->scheduled = false;
      idle_cv_.notify_all();
    }
  }
}

void QueryService::ScheduleLocked(const std::shared_ptr<SessionState>& state) {
  if (state->scheduled) return;
  state->scheduled = true;
  runnable_.push_back(state);
  work_cv_.notify_one();
}

Result<std::shared_ptr<QueryService::SessionState>> QueryService::FindLocked(
    SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->released) {
    return Status::InvalidArgument("unknown session id " + std::to_string(id));
  }
  return it->second;
}

void QueryService::WaitUntilIdle(std::unique_lock<std::mutex>& lock,
                                 const std::shared_ptr<SessionState>& state) {
  idle_cv_.wait(lock,
                [&] { return state->queue.empty() && !state->scheduled; });
}

Result<SessionId> QueryService::OpenSession(std::string_view query_text) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::InvalidArgument("service is shut down");
    if (sessions_.size() >= config_.max_sessions) {
      stats_.Add(Stat::sessions_rejected);
      return Status::ResourceExhausted(
          "session limit reached (" + std::to_string(config_.max_sessions) +
          ")");
    }
  }
  // Compile (or hit the cache) outside the service lock.
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<const core::CompiledPlan> plan,
                       plan_cache_.GetOrCompile(query_text));
  XSQ_FAILPOINT("service.worker.alloc_fail",
                return Status::ResourceExhausted(
                    "injected session allocation failure"));
  XSQ_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      Session::Create(std::move(plan), config_.per_session_memory_budget,
                      &stats_, &metrics_, config_.parser_limits,
                      config_.cancel_check_events));

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return Status::InvalidArgument("service is shut down");
  if (sessions_.size() >= config_.max_sessions) {
    stats_.Add(Stat::sessions_rejected);
    return Status::ResourceExhausted(
        "session limit reached (" + std::to_string(config_.max_sessions) +
        ")");
  }
  SessionId id = next_id_++;
  auto state = std::make_shared<SessionState>();
  state->session = std::move(session);
  sessions_.emplace(id, std::move(state));
  stats_.Add(Stat::sessions_opened);
  return id;
}

Status QueryService::Push(SessionId id, std::string chunk,
                          uint64_t deadline_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return Status::InvalidArgument("service is shut down");
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<SessionState> state, FindLocked(id));
  if (state->close_requested) {
    return Status::InvalidArgument("Push after Close");
  }
  if (state->queue.size() >= config_.max_queued_chunks_per_session) {
    stats_.Add(Stat::pushes_rejected);
    return Status::ResourceExhausted(
        "session queue full (" +
        std::to_string(config_.max_queued_chunks_per_session) +
        " chunks); drain or retry");
  }
  if (config_.global_memory_budget > 0 &&
      stats_.Get(Stat::engine_buffered_bytes) > config_.global_memory_budget) {
    stats_.Add(Stat::pushes_rejected);
    return Status::ResourceExhausted(
        "global memory budget exceeded; retry after buffers drain");
  }
  std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
  if (!state->doc_started) {
    state->doc_started = true;
    state->doc_start = now;
    // Arm the document deadline with the first work item: explicit
    // per-request value, else the service default. The token is atomic,
    // so arming races harmlessly with a worker already evaluating.
    uint64_t ms = deadline_ms > 0 ? deadline_ms : config_.default_deadline_ms;
    if (ms > 0) state->session->SetDeadlineAfterMs(ms);
  } else if (deadline_ms > 0) {
    state->session->SetDeadlineAfterMs(deadline_ms);  // caller re-arms
  }
  state->queue.push_back(
      WorkItem{WorkItem::Kind::kChunk, std::move(chunk), now});
  stats_.RaiseTo(Stat::queue_high_water, state->queue.size());
  ScheduleLocked(state);
  return Status::OK();
}

Status QueryService::Close(SessionId id) {
  std::unique_lock<std::mutex> lock(mu_);
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<SessionState> state, FindLocked(id));
  if (!state->close_requested) {
    if (stopping_) return Status::InvalidArgument("service is shut down");
    state->close_requested = true;
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now();
    if (!state->doc_started) {
      state->doc_started = true;
      state->doc_start = now;
      if (config_.default_deadline_ms > 0) {
        state->session->SetDeadlineAfterMs(config_.default_deadline_ms);
      }
    }
    state->queue.push_back(
        WorkItem{WorkItem::Kind::kClose, std::string(), now});
    ScheduleLocked(state);
  }
  WaitUntilIdle(lock, state);
  return state->session->status();
}

Status QueryService::ResetSession(SessionId id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) return Status::InvalidArgument("service is shut down");
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<SessionState> state, FindLocked(id));
  WaitUntilIdle(lock, state);
  // Claim the session so no worker can be scheduled onto it mid-reset
  // (none can be: the queue is empty and Push/Close on this id are
  // blocked on mu_, which we hold until after the claim).
  state->scheduled = true;
  lock.unlock();
  Status status = state->session->Reset();
  lock.lock();
  state->scheduled = false;
  state->close_requested = false;
  state->doc_started = false;
  if (!state->queue.empty()) ScheduleLocked(state);
  idle_cv_.notify_all();
  return status;
}

Result<std::shared_ptr<const tape::Tape>> QueryService::RecordDocument(
    std::string_view name, std::string_view document) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::InvalidArgument("service is shut down");
  }
  if (name.empty()) return Status::InvalidArgument("empty document name");
  XSQ_FAILPOINT("service.record.alloc_fail",
                return Status::ResourceExhausted(
                    "injected tape allocation failure"));
  XSQ_ASSIGN_OR_RETURN(tape::Tape recorded, tape::RecordDocument(document));
  auto tape = std::make_shared<const tape::Tape>(std::move(recorded));
  doc_cache_.Put(name, tape);
  return tape;
}

Status QueryService::RunCached(SessionId id, std::string_view name,
                               uint64_t deadline_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) return Status::InvalidArgument("service is shut down");
  // Session lookup precedes the cache probe so the error precedence is
  // the same whether the request reaches the service directly or via a
  // router that validates its own session table first.
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<SessionState> state, FindLocked(id));
  std::shared_ptr<const tape::Tape> tape = doc_cache_.Get(name);
  if (tape == nullptr) {
    return Status::NotFound("document not recorded: " + std::string(name));
  }
  WaitUntilIdle(lock, state);
  // Claim the session so no worker can touch it while we replay inline
  // (same discipline as ResetSession; Push/Close on this id block on
  // mu_ until the claim is visible).
  state->scheduled = true;
  lock.unlock();

  // Rewind a session that already served a document (or failed) so
  // RunCached composes back to back without an explicit reset.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  Status status = Status::OK();
  if (state->session->closed() || !state->session->status().ok()) {
    status = state->session->Reset();
  }
  // Arm after the reset (Reset clears the token along with failures).
  uint64_t ms = deadline_ms > 0 ? deadline_ms : config_.default_deadline_ms;
  if (status.ok() && ms > 0) state->session->SetDeadlineAfterMs(ms);
  if (status.ok()) status = state->session->RunTape(*tape);
  uint64_t elapsed_us =
      ElapsedMicros(started, std::chrono::steady_clock::now());
  metrics_.RecordRequestLatency(elapsed_us, state->session->deterministic());
  exemplars_.Observe(elapsed_us, state->session->query().ToString());
  MaybeLogSlowQuery(*state, elapsed_us);

  lock.lock();
  state->scheduled = false;
  state->close_requested = false;
  state->doc_started = false;
  if (!state->queue.empty()) ScheduleLocked(state);
  idle_cv_.notify_all();
  return status;
}

Status QueryService::CancelSession(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<SessionState> state, FindLocked(id));
  // Trip the token only; the worker (or the next streaming call)
  // observes it, fails the session with kCancelled, and frees its
  // buffers. Nothing here blocks on the evaluation.
  state->session->Cancel();
  return Status::OK();
}

Status QueryService::EvictDocument(std::string_view name) {
  if (!doc_cache_.Evict(name)) {
    return Status::NotFound("document not recorded: " + std::string(name));
  }
  return Status::OK();
}

Result<std::shared_ptr<const tape::Tape>> QueryService::ServeTape(
    std::string_view name) {
  std::shared_ptr<const tape::Tape> tape = doc_cache_.Peek(name);
  if (tape == nullptr) {
    return Status::NotFound("document not recorded: " + std::string(name));
  }
  stats_.Add(Stat::repl_serves);
  return tape;
}

Result<std::shared_ptr<const tape::Tape>> QueryService::IngestTape(
    std::string_view name, std::string bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::InvalidArgument("service is shut down");
  }
  if (name.empty()) return Status::InvalidArgument("empty document name");
  Result<tape::Tape> decoded =
      tape::Tape::FromBytes(std::move(bytes), "replpull:" + std::string(name));
  if (!decoded.ok()) {
    stats_.Add(Stat::tape_corrupt);
    stats_.Add(Stat::repl_ingest_corrupt);
    return decoded.status();
  }
  auto tape = std::make_shared<const tape::Tape>(*std::move(decoded));
  doc_cache_.Put(name, tape);
  stats_.Add(Stat::repl_ingests);
  return tape;
}

std::vector<std::pair<std::string, std::shared_ptr<const tape::Tape>>>
QueryService::DocumentInventory() const {
  return doc_cache_.Snapshot();
}

std::vector<std::string> QueryService::Drain(SessionId id) {
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Result<std::shared_ptr<SessionState>> found = FindLocked(id);
    if (!found.ok()) return {};
    state = *std::move(found);
  }
  return state->session->TakeItems();
}

std::optional<double> QueryService::FinalAggregate(SessionId id) {
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Result<std::shared_ptr<SessionState>> found = FindLocked(id);
    if (!found.ok()) return std::nullopt;
    state = *std::move(found);
  }
  return state->session->final_aggregate();
}

Status QueryService::Release(SessionId id) {
  std::unique_lock<std::mutex> lock(mu_);
  XSQ_ASSIGN_OR_RETURN(std::shared_ptr<SessionState> state, FindLocked(id));
  state->released = true;
  // The worker's shared_ptr keeps in-flight work safe; dropping the map
  // entry frees the admission slot immediately.
  sessions_.erase(id);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Standing-query pub/sub.

Result<uint64_t> QueryService::AddSubscriber(EventSink sink) {
  if (!sink) return Status::InvalidArgument("empty event sink");
  std::lock_guard<std::mutex> lock(pub_mu_);
  if (pub_stopping_) return Status::InvalidArgument("service is shut down");
  uint64_t id = next_subscriber_id_++;
  auto sub = std::make_shared<Subscriber>();
  sub->id = id;
  sub->sink = std::move(sink);
  subscribers_.emplace(id, std::move(sub));
  return id;
}

Status QueryService::RemoveSubscriber(uint64_t subscriber_id) {
  std::unique_lock<std::mutex> lock(pub_mu_);
  auto it = subscribers_.find(subscriber_id);
  if (it == subscribers_.end()) {
    return Status::InvalidArgument("unknown subscriber id " +
                                   std::to_string(subscriber_id));
  }
  std::shared_ptr<Subscriber> sub = it->second;
  sub->removed = true;
  for (uint64_t sid : sub->subscriptions) {
    (void)pubsub_.Unsubscribe(sid);  // only fails on unknown ids
    subscription_owner_.erase(sid);
  }
  stats_.Add(Stat::subscriptions_active,
             -static_cast<int64_t>(sub->subscriptions.size()));
  sub->subscriptions.clear();
  sub->frames.clear();
  subscribers_.erase(it);
  // A dispatcher may be mid-delivery outside the lock; wait it out so
  // the sink is provably never invoked after we return.
  unclaim_cv_.wait(lock, [&] { return !sub->claimed; });
  return Status::OK();
}

Result<uint64_t> QueryService::Subscribe(uint64_t subscriber_id,
                                         std::string_view query_text) {
  std::lock_guard<std::mutex> lock(pub_mu_);
  if (pub_stopping_) return Status::InvalidArgument("service is shut down");
  auto it = subscribers_.find(subscriber_id);
  if (it == subscribers_.end()) {
    return Status::InvalidArgument("unknown subscriber id " +
                                   std::to_string(subscriber_id));
  }
  if (pubsub_.subscription_count() >= config_.max_subscriptions) {
    return Status::ResourceExhausted(
        "subscription limit reached (" +
        std::to_string(config_.max_subscriptions) + ")");
  }
  XSQ_ASSIGN_OR_RETURN(uint64_t sid, pubsub_.Subscribe(query_text));
  it->second->subscriptions.insert(sid);
  subscription_owner_.emplace(sid, subscriber_id);
  stats_.Add(Stat::subscriptions_active);
  return sid;
}

Status QueryService::Unsubscribe(uint64_t subscriber_id,
                                 uint64_t subscription_id) {
  std::lock_guard<std::mutex> lock(pub_mu_);
  auto owner = subscription_owner_.find(subscription_id);
  if (owner == subscription_owner_.end() ||
      owner->second != subscriber_id) {
    return Status::InvalidArgument(
        "unknown subscription id " + std::to_string(subscription_id) +
        " for subscriber " + std::to_string(subscriber_id));
  }
  XSQ_RETURN_IF_ERROR(pubsub_.Unsubscribe(subscription_id));
  subscription_owner_.erase(owner);
  auto it = subscribers_.find(subscriber_id);
  if (it != subscribers_.end()) {
    it->second->subscriptions.erase(subscription_id);
  }
  stats_.Add(Stat::subscriptions_active, -1);
  return Status::OK();
}

Result<QueryService::PublishSummary> QueryService::Publish(
    std::string_view document) {
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(pub_mu_);
  if (pub_stopping_) return Status::InvalidArgument("service is shut down");
  XSQ_ASSIGN_OR_RETURN(pubsub::PublishOutcome outcome,
                       pubsub_.Publish(document));
  stats_.Add(Stat::publishes);

  PublishSummary summary;
  summary.subscriptions = outcome.subscriptions;
  summary.deliveries = outcome.deliveries.size();
  summary.filter_survivors = outcome.filter_survivors;
  summary.hpdt_evaluations = outcome.hpdt_evaluations;

  // Format EVENT frames and enqueue them on the owning subscribers'
  // bounded queues. Overflow sheds the frame (never blocks a publish on
  // a slow subscriber) and queues one ERR notice per shed episode — the
  // notice rides above the bound so the subscriber always learns it
  // lost data.
  for (const pubsub::Delivery& delivery : outcome.deliveries) {
    auto owner = subscription_owner_.find(delivery.subscription_id);
    if (owner == subscription_owner_.end()) continue;
    auto sit = subscribers_.find(owner->second);
    if (sit == subscribers_.end()) continue;
    Subscriber& sub = *sit->second;
    uint64_t dropped_now = 0;
    auto offer = [&](std::string frame) {
      if (sub.frames.size() >= config_.max_subscriber_queue_frames) {
        ++dropped_now;
        return;
      }
      sub.frames.push_back(std::move(frame));
      ++summary.frames_enqueued;
    };
    std::string prefix =
        "EVENT " + std::to_string(delivery.subscription_id) + ' ';
    if (delivery.is_aggregate) {
      if (delivery.aggregate.has_value()) {
        offer(prefix + "AGG " + std::to_string(*delivery.aggregate));
      }
    } else {
      for (const std::string& item : delivery.items) {
        offer(prefix + "ITEM " + LineEscape(item));
      }
    }
    if (dropped_now > 0) {
      summary.frames_shed += dropped_now;
      stats_.Add(Stat::fanout_shed, dropped_now);
      if (!sub.shed_episode) {
        sub.shed_episode = true;
        sub.frames.push_back(
            "EVENT 0 ERR ResourceExhausted: slow subscriber; dropped " +
            std::to_string(dropped_now) + " event frames");
        ++summary.frames_enqueued;
      }
    }
    if (!sub.frames.empty()) ScheduleSubscriberLocked(sit->second);
  }

  metrics_.publish_latency_us->Record(
      ElapsedMicros(started, std::chrono::steady_clock::now()));
  return summary;
}

size_t QueryService::subscription_count() const {
  std::lock_guard<std::mutex> lock(pub_mu_);
  return pubsub_.subscription_count();
}

void QueryService::ScheduleSubscriberLocked(
    const std::shared_ptr<Subscriber>& sub) {
  // A claimed subscriber re-checks its queue when the dispatcher
  // unclaims it, so it must not be queued twice.
  if (sub->queued || sub->claimed || sub->removed) return;
  sub->queued = true;
  dispatch_queue_.push_back(sub);
  dispatch_cv_.notify_one();
}

void QueryService::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(pub_mu_);
  for (;;) {
    dispatch_cv_.wait(lock,
                      [this] { return pub_stopping_ || !dispatch_queue_.empty(); });
    if (dispatch_queue_.empty()) {
      if (pub_stopping_) return;  // fully drained
      continue;
    }
    std::shared_ptr<Subscriber> sub = std::move(dispatch_queue_.front());
    dispatch_queue_.pop_front();
    sub->queued = false;
    if (sub->removed || sub->frames.empty()) continue;
    sub->claimed = true;
    std::deque<std::string> batch = std::move(sub->frames);
    sub->frames.clear();
    lock.unlock();

    metrics_.fanout_batch->Record(batch.size());
    uint64_t delivered = 0;
    uint64_t injected_drops = 0;
    for (const std::string& frame : batch) {
      bool dropped = false;
      XSQ_FAILPOINT("pubsub.fanout.fail", dropped = true);
      if (dropped) {
        ++injected_drops;
        continue;
      }
      sub->sink(frame);
      ++delivered;
    }
    if (delivered > 0) stats_.Add(Stat::events_delivered, delivered);
    if (injected_drops > 0) stats_.Add(Stat::fanout_shed, injected_drops);

    lock.lock();
    sub->claimed = false;
    if (sub->frames.empty()) {
      sub->shed_episode = false;  // drained: next overflow is a new episode
    } else {
      ScheduleSubscriberLocked(sub);  // frames arrived while delivering
    }
    unclaim_cv_.notify_all();
  }
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    // Bound the drain: give every live session the drain deadline so a
    // wedged or adversarial evaluation aborts with kDeadlineExceeded
    // instead of wedging the join below. Sessions already released but
    // still held by a worker finish on their own (their queues are
    // bounded).
    if (config_.drain_deadline_ms > 0) {
      for (auto& [id, state] : sessions_) {
        state->session->SetDeadlineAfterMs(config_.drain_deadline_ms);
      }
    }
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Pub/sub teardown: stop publishes, let the dispatchers drain every
  // queued EVENT frame, join them.
  {
    std::lock_guard<std::mutex> lock(pub_mu_);
    pub_stopping_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& dispatcher : dispatchers_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
  dispatchers_.clear();
}

StatsSnapshot QueryService::stats() const {
  StatsSnapshot snap = stats_.Snapshot();
  snap.sessions_active = active_sessions();
  PlanCache::Counters cache = plan_cache_.counters();
  snap.plan_cache_hits = cache.hits;
  snap.plan_cache_misses = cache.misses;
  snap.plan_cache_evictions = cache.evictions;
  DocumentCache::Counters docs = doc_cache_.counters();
  snap.doc_cache_hits = docs.hits;
  snap.doc_cache_misses = docs.misses;
  snap.doc_cache_evictions = docs.evictions;
  snap.doc_cache_explicit_evictions = docs.explicit_evictions;
  snap.doc_cache_documents = docs.resident_documents;
  snap.doc_cache_bytes = docs.resident_bytes;
  return snap;
}

std::string QueryService::MetricsText() const {
  std::string out = registry_.RenderText();
  // The STATS counters re-exposed in the same format, `xsq_` prefixed,
  // so one METRICS scrape reconciles histograms against lifetime
  // counters and gauges.
  stats().AppendMetrics(&out);
  exemplars_.RenderComments(&out);
  return out;
}

void QueryService::MaybeLogSlowQuery(const SessionState& state,
                                     uint64_t elapsed_us) const {
  if (config_.slow_query_ms == 0) return;
  if (elapsed_us < static_cast<uint64_t>(config_.slow_query_ms) * 1000) return;
  Session::PhaseTotals phases = state.session->phase_totals();
  std::fprintf(stderr,
               "[xsq] slow query: %.1f ms total "
               "(parse %.1f ms, automaton %.1f ms, buffer %.1f ms) %s\n",
               static_cast<double>(elapsed_us) / 1e3,
               static_cast<double>(phases.parse_ns) / 1e6,
               static_cast<double>(phases.automaton_ns) / 1e6,
               static_cast<double>(phases.buffer_ns) / 1e6,
               state.session->query().ToString().c_str());
}

size_t QueryService::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

bool QueryService::HasSession(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.find(id) != sessions_.end();
}

}  // namespace xsq::service
