// QueryService: the concurrent multi-session front door of the library.
//
//              clients (any threads)
//                 |  Open / Push / Close / Drain
//                 v
//   +---------- QueryService ----------+
//   | admission control   PlanCache    |
//   | per-session FIFO queues          |
//   | runnable queue -> worker pool    |
//   +----------------------------------+
//                 v
//         Session -> StreamingQuery -> XSQ-F / XSQ-NC engines
//
// Execution model: every session owns a FIFO queue of work (chunks,
// then a close marker). A session with queued work is *scheduled* on
// the runnable queue exactly once; a worker claims it, processes its
// queue in order with no other worker touching that session, and
// re-schedules it if more work arrived meanwhile. Chunks of one session
// are therefore evaluated sequentially and in arrival order (the
// engines are inherently order-dependent), while distinct sessions run
// in parallel across the pool.
//
// Flow control is explicit and caller-visible:
//   - OpenSession    rejects with ResourceExhausted above max_sessions.
//   - Push           rejects with ResourceExhausted when the session's
//                    queue is full or the global engine-buffer gauge
//                    exceeds the global memory budget; callers retry
//                    (ideally after draining) instead of the service
//                    buffering without bound.
//   - per-session    enforced inside Session: a document that forces
//     memory budget  the engine to buffer more than the budget fails
//                    that session with ResourceExhausted.
//
// Shutdown() stops admission, drains every queued work item, and joins
// the workers; the destructor calls it.
#ifndef XSQ_SERVICE_QUERY_SERVICE_H_
#define XSQ_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/registry.h"
#include "pubsub/subscription_registry.h"
#include "service/document_cache.h"
#include "service/exemplars.h"
#include "service/metrics.h"
#include "service/plan_cache.h"
#include "service/session.h"
#include "service/stats.h"
#include "tape/tape.h"

namespace xsq::service {

using SessionId = uint64_t;

struct ServiceConfig {
  // Worker threads evaluating sessions. At least 1.
  int num_workers = 4;
  // Admission control: concurrently open sessions.
  size_t max_sessions = 1024;
  // Backpressure: chunks a session may have queued (not yet claimed by
  // a worker) before Push returns ResourceExhausted.
  size_t max_queued_chunks_per_session = 64;
  // Per-session engine-buffer bound, bytes (0 = unlimited).
  size_t per_session_memory_budget = 0;
  // Global engine-buffer bound, bytes (0 = unlimited). Enforced as
  // push-time backpressure against the buffered-bytes gauge.
  size_t global_memory_budget = 0;
  // Compiled plans kept by the LRU plan cache.
  size_t plan_cache_capacity = 128;
  // Recorded tapes kept by the LRU document cache (0 = unlimited).
  size_t doc_cache_capacity = 64;
  // Byte budget for resident tapes (0 = unlimited).
  size_t doc_cache_byte_budget = 0;
  // Requests (Close/RunCached completions) at or above this many
  // milliseconds are logged to stderr with their phase breakdown, or a
  // RunCached with its replay time (0 = disabled).
  size_t slow_query_ms = 0;
  // Service-wide default deadline for a document request, milliseconds
  // (0 = none). Armed when a document's first work arrives; a request
  // that is still evaluating when it expires fails with
  // kDeadlineExceeded and frees its buffers. Push/RunCached accept a
  // per-request override.
  uint64_t default_deadline_ms = 0;
  // Bound on Shutdown's drain, milliseconds (0 = wait for everything).
  // When set, every live session gets this deadline at shutdown, so a
  // wedged evaluation aborts with kDeadlineExceeded instead of hanging
  // the join.
  uint64_t drain_deadline_ms = 0;
  // Parser hardening applied to every session. Defaults to the Serving
  // preset: hostile documents (absurd nesting, attribute floods,
  // entity bombs, unterminated DOCTYPEs) fail that session with
  // kLimitExceeded instead of exhausting the process.
  xml::ParserLimits parser_limits = xml::ParserLimits::Serving();
  // Cancellation sampling interval, in SAX events: how often the
  // engines poll each session's CancelToken. Smaller = tighter
  // cancel/deadline/disconnect latency, more polling overhead (each
  // poll is one relaxed load, plus a clock read while a deadline is
  // armed). The default keeps the poll under the 2% ext_resilience
  // throughput bound on a 1-CPU box.
  uint32_t cancel_check_events = core::CancelToken::kCheckIntervalEvents;
  // --- replication transfer bounds ---
  // Cap on a serialized tape accepted by or served for a REPLPULL
  // shard-to-shard transfer, bytes (0 = unlimited). An oversized tape
  // fails the transfer with kLimitExceeded *before* ingest begins, so
  // a runaway peer can neither wedge the puller's memory nor leave a
  // half-installed tape.
  size_t max_tape_bytes = 0;
  // Deadline for the pull side of one REPLPULL transfer (connect +
  // fetch from the source peer), milliseconds.
  uint64_t replpull_deadline_ms = 5000;
  // --- standing-query pub/sub ---
  // Admission control: live standing subscriptions across all
  // subscribers.
  size_t max_subscriptions = 4096;
  // Bound on EVENT frames queued per subscriber awaiting fan-out. A
  // subscriber whose sink cannot keep up sheds frames past this bound
  // (with one ERR notice per shed episode); Publish never blocks on a
  // slow subscriber.
  size_t max_subscriber_queue_frames = 1024;
};

class QueryService {
 public:
  explicit QueryService(ServiceConfig config = ServiceConfig());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Threads fanning queued EVENT frames out to subscriber sinks; a
  // second one keeps fan-out going while one sits in a slow sink.
  static constexpr size_t kNumDispatchers = 2;

  // Compiles (or fetches from the plan cache) `query_text` and opens a
  // session for it. ResourceExhausted when at max_sessions.
  Result<SessionId> OpenSession(std::string_view query_text);

  // Enqueues the next chunk of `id`'s current document. Returns
  // immediately; evaluation is asynchronous. ResourceExhausted is the
  // backpressure signal (queue full or global memory budget hit).
  // `deadline_ms` > 0 (re)arms the document's deadline from now,
  // overriding the service default; 0 keeps whatever is armed.
  Status Push(SessionId id, std::string chunk, uint64_t deadline_ms = 0);

  // Enqueues end-of-document and blocks until every queued chunk and
  // the close have been evaluated. Returns the session's terminal
  // status (parse/engine errors and budget failures surface here).
  Status Close(SessionId id);

  // Blocks until the session is idle, then rewinds it for the next
  // document (same compiled plan, failures cleared).
  Status ResetSession(SessionId id);

  // --- parse-once/replay-many document serving ---

  // Parses `document` once, records it as a tape under `name` in the
  // document cache (replacing any previous recording), and returns the
  // tape.
  Result<std::shared_ptr<const tape::Tape>> RecordDocument(
      std::string_view name, std::string_view document);

  // Evaluates the cached document `name` on session `id` by replaying
  // its tape, synchronously on the calling thread. The session is
  // rewound first if it already served a document or failed, so one
  // session can RunCached any number of documents back to back. Returns
  // the session's terminal status; results are drainable as after
  // Close. NotFound when `name` is not resident.
  // `deadline_ms` > 0 bounds this replay, overriding the service
  // default.
  Status RunCached(SessionId id, std::string_view name,
                   uint64_t deadline_ms = 0);

  // Cancels session `id` from any thread: an in-flight evaluation
  // aborts with kCancelled within one engine sampling interval, its
  // buffers are freed, and sibling sessions are untouched. Idle
  // sessions stay cancelled (the next streaming call fails) until
  // ResetSession.
  Status CancelSession(SessionId id);

  // Drops `name`'s tape from the document cache. NotFound when
  // it is not resident. In-flight replays keep their tape alive.
  Status EvictDocument(std::string_view name);

  // --- shard-to-shard tape replication (the REPLPULL verb) ---
  //
  // A cluster replicates documents by streaming the serialized tape
  // between shards: the holder serves bytes (ServeTape), the new
  // replica validates and installs them (IngestTape). Both sides go
  // through DocumentCache::Peek/Put, so replication traffic never
  // perturbs the serving path's LRU order or hit/miss statistics.

  // The resident tape for `name`, recency and cache counters untouched;
  // counts one repl_serve. NotFound when not resident.
  Result<std::shared_ptr<const tape::Tape>> ServeTape(std::string_view name);

  // Decodes `bytes` as a serialized tape (full validation including the
  // per-section CRC32C trailers) and installs it under `name`,
  // replacing any previous recording. A corrupt transfer counts in both
  // tape_corrupt and repl_ingest_corrupt and installs nothing.
  Result<std::shared_ptr<const tape::Tape>> IngestTape(std::string_view name,
                                                       std::string bytes);

  // Every resident document, MRU first, recency untouched — the
  // REPLSTATUS inventory the anti-entropy sweep scatters for.
  std::vector<std::pair<std::string, std::shared_ptr<const tape::Tape>>>
  DocumentInventory() const;

  // True while `id` is open (between OpenSession and Release).
  bool HasSession(SessionId id) const;

  // Moves out the items produced so far for `id`, in document order.
  // Valid while streaming, after Close, and until Release.
  std::vector<std::string> Drain(SessionId id);

  // Final aggregate value for aggregation queries (set after Close).
  std::optional<double> FinalAggregate(SessionId id);

  // Frees the session slot. In-flight work for the session finishes
  // first (the worker keeps it alive), but no new work is accepted.
  Status Release(SessionId id);

  // --- standing-query pub/sub (src/pubsub/) ---
  //
  // Register subscribers (delivery endpoints), attach standing XPath
  // subscriptions to them, and Publish documents: each document is
  // parsed once against the shared filter NFA, surviving
  // predicate-bearing subscriptions get one tape replay, and results
  // fan out asynchronously as EVENT frames through per-subscriber
  // bounded queues drained by a dispatcher pool.

  // A subscriber's delivery callback. Dispatcher threads invoke it with
  // one fully formatted frame per call, no trailing newline:
  //   EVENT <sub-id> ITEM <line-escaped item bytes>
  //   EVENT <sub-id> AGG <value>
  //   EVENT 0 ERR ResourceExhausted: <shed notice>
  // It must be fast (a slow sink backs up only its own queue, which
  // then sheds) and must never call back into this QueryService.
  using EventSink = std::function<void(std::string_view frame)>;

  struct PublishSummary {
    size_t subscriptions = 0;     // standing queries matched against
    size_t deliveries = 0;        // subscriptions that produced output
    size_t filter_survivors = 0;  // predicate subs passing the shared NFA
    size_t hpdt_evaluations = 0;  // engines actually run (== survivors)
    uint64_t frames_enqueued = 0;  // EVENT frames queued for fan-out
    uint64_t frames_shed = 0;      // frames dropped on slow subscribers
  };

  // Registers a delivery endpoint. InvalidArgument on an empty sink.
  Result<uint64_t> AddSubscriber(EventSink sink);

  // Drops the subscriber and every subscription it owns. Blocks until
  // no dispatcher is mid-delivery to it, so the sink is never invoked
  // after this returns (safe to destroy the connection behind it).
  Status RemoveSubscriber(uint64_t subscriber_id);

  // Compiles `query_text` as a standing query owned by `subscriber_id`.
  // Returns the subscription id (distinct from session ids; 1-based).
  // ResourceExhausted at max_subscriptions.
  Result<uint64_t> Subscribe(uint64_t subscriber_id,
                             std::string_view query_text);

  // Removes one standing query. InvalidArgument when the subscription
  // does not exist or is owned by a different subscriber.
  Status Unsubscribe(uint64_t subscriber_id, uint64_t subscription_id);

  // Matches `document` against every standing query — one parse, at
  // most one tape replay — and enqueues EVENT frames on the owning
  // subscribers' fan-out queues. Never blocks on slow subscribers
  // (their frames shed). Fails only on document-level errors.
  Result<PublishSummary> Publish(std::string_view document);

  // Live standing subscriptions across all subscribers.
  size_t subscription_count() const;

  // Stops admission, drains all queued work, joins the workers.
  // Idempotent.
  void Shutdown();

  // Counters, including plan-cache hit/miss/eviction numbers.
  StatsSnapshot stats() const;

  // Latency observability: the histogram registry (see
  // service/metrics.h for the metric set) and the combined
  // Prometheus-style exposition — every histogram plus the StatsSnapshot
  // counters/gauges as `xsq_<name>` scalars. The xsqd METRICS verb
  // prints MetricsText() verbatim.
  const obs::Registry& metrics_registry() const { return registry_; }
  std::string MetricsText() const;

  // Slow-query exemplars: the slowest request per latency bucket with
  // its query text. Rendered into MetricsText() as comment lines; the
  // xsqd --slow-query-ms path also dumps them at exit.
  const ExemplarStore& exemplars() const { return exemplars_; }

  // The live counter block. Exposed so the network front-end (and other
  // transports) can account connection-level events — accepts, sheds,
  // disconnect-driven cancels — in the same place the service counts
  // everything else.
  ServiceStats* stats_sink() { return &stats_; }

  // The configuration the service was built with (admission limits,
  // deadlines, cancellation grain) — the front-end reads it to align
  // accept-side shedding with the service's own admission control.
  const ServiceConfig& config() const { return config_; }

  const PlanCache& plan_cache() const { return plan_cache_; }
  const DocumentCache& document_cache() const { return doc_cache_; }
  size_t active_sessions() const;

 private:
  struct WorkItem {
    enum class Kind { kChunk, kClose } kind;
    std::string chunk;
    // Enqueue instant, for queue-wait and chunk-latency histograms.
    std::chrono::steady_clock::time_point enqueued;
  };

  // One open session plus its scheduling state. Guarded by mu_ except
  // `session`, whose streaming side is only ever touched by the single
  // worker that has the state claimed (scheduled == true).
  struct SessionState {
    std::unique_ptr<Session> session;
    std::deque<WorkItem> queue;
    bool scheduled = false;  // on the runnable queue or held by a worker
    bool close_requested = false;
    bool released = false;
    // Request-latency bookkeeping: set under mu_ when the document's
    // first work item is queued, read by the worker processing kClose
    // (ordered by the queue handoff through mu_).
    std::chrono::steady_clock::time_point doc_start{};
    bool doc_started = false;
  };

  // One delivery endpoint plus its fan-out state. Guarded by pub_mu_
  // except `sink`, which is only invoked by the dispatcher that has the
  // subscriber claimed (claimed == true), outside the lock.
  struct Subscriber {
    uint64_t id = 0;
    EventSink sink;
    std::deque<std::string> frames;  // formatted, awaiting fan-out
    std::unordered_set<uint64_t> subscriptions;
    bool claimed = false;  // a dispatcher is delivering right now
    bool queued = false;   // on dispatch_queue_
    // One ERR notice per shed episode; cleared when the queue drains.
    bool shed_episode = false;
    bool removed = false;
  };

  void WorkerLoop();
  void DispatcherLoop();
  // Requires pub_mu_: queues `sub` for a dispatcher if it needs one.
  void ScheduleSubscriberLocked(const std::shared_ptr<Subscriber>& sub);
  // Requires mu_: puts `state` on the runnable queue if it is not
  // already scheduled.
  void ScheduleLocked(const std::shared_ptr<SessionState>& state);
  // Requires mu_: looks up a live (non-released) session.
  Result<std::shared_ptr<SessionState>> FindLocked(SessionId id);
  // Blocks until `state` has no queued or in-flight work.
  void WaitUntilIdle(std::unique_lock<std::mutex>& lock,
                     const std::shared_ptr<SessionState>& state);

  // Logs the request to stderr with its phase breakdown when it ran at
  // or above the slow-query threshold. Called by the thread that just
  // finished evaluating the request (it owns the session's claim).
  void MaybeLogSlowQuery(const SessionState& state,
                         uint64_t elapsed_us) const;

  const ServiceConfig config_;
  PlanCache plan_cache_;
  DocumentCache doc_cache_;
  ServiceStats stats_;
  obs::Registry registry_;
  ServiceMetrics metrics_{&registry_};
  ExemplarStore exemplars_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: runnable queue non-empty
  std::condition_variable idle_cv_;  // waiters: some session went idle
  std::unordered_map<SessionId, std::shared_ptr<SessionState>> sessions_;
  std::deque<std::shared_ptr<SessionState>> runnable_;
  SessionId next_id_ = 1;
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  // Pub/sub state, guarded by pub_mu_ — independent of mu_ and never
  // held together with it. Publishes serialize on pub_mu_ (the registry
  // keeps persistent per-subscription engines), while fan-out to sinks
  // happens on dispatcher threads outside the lock.
  mutable std::mutex pub_mu_;
  std::condition_variable dispatch_cv_;  // dispatchers: queue non-empty
  std::condition_variable unclaim_cv_;   // RemoveSubscriber: unclaimed
  pubsub::SubscriptionRegistry pubsub_;
  std::unordered_map<uint64_t, std::shared_ptr<Subscriber>> subscribers_;
  // subscription id -> owning subscriber id.
  std::unordered_map<uint64_t, uint64_t> subscription_owner_;
  std::deque<std::shared_ptr<Subscriber>> dispatch_queue_;
  uint64_t next_subscriber_id_ = 1;
  bool pub_stopping_ = false;
  std::vector<std::thread> dispatchers_;
};

}  // namespace xsq::service

#endif  // XSQ_SERVICE_QUERY_SERVICE_H_
