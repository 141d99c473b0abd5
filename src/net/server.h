// net::Server: a fault-tolerant TCP front-end for the query service.
//
//        peers (any number)                     GET /metrics scrapers
//            |                                        |
//            v                                        v
//   +----------------- net::Server ------------------------+
//   | poll thread: accept, read, write, timeouts, reaping  |
//   |   - admission control + load shedding at accept      |
//   |   - bounded input lines / bounded output buffer      |
//   |   - idle + write deadlines (slowloris, half-open)    |
//   |   - disconnect => LineProtocol::CancelAll            |
//   | protocol workers: run LineProtocol per connection    |
//   +------------------------------------------------------+
//            |  1 LineProtocol per connection
//            v
//       service::QueryService (its own worker pool)
//
// Threading model. ONE poll thread owns every file descriptor: it
// accepts, reads bytes into per-connection input buffers, splits them
// into protocol lines, writes response bytes out, enforces deadlines
// and closes sockets. It never executes a command. N protocol workers
// claim connections with pending lines (per-connection FIFO, one
// worker per connection at a time — the protocol is stateful) and run
// LineProtocol::HandleLine, which may block inside the service (CLOSE
// waits for evaluation). Responses are appended to the connection's
// output buffer and the poll thread is woken through a self-pipe.
//
// This split is what makes disconnect-driven cancellation work: while
// a worker is blocked in service::Close evaluating an expensive query,
// the poll thread is still watching the socket. The moment the peer
// disconnects it calls CancelAll on that connection's protocol, the
// engine's sampled cancel check fires within one interval
// (ServiceConfig::cancel_check_events events), and the worker unblocks
// with kCancelled — no abandoned query runs to completion.
//
// Failure containment per connection:
//   - input line > max_line_bytes       -> ERR + close  (overrun)
//   - output buffer > max_output_bytes  -> ERR + close  (slow reader)
//   - no bytes either way for idle_timeout_ms    -> close (idle/half-open)
//   - output pending for > write_timeout_ms      -> close (write deadline)
//   - accept beyond max_connections or a saturated service -> best-effort
//     "ERR ResourceExhausted" + close (load shedding; never queues)
// Every such event is counted in ServiceStats (connections_accepted,
// connections_shed, disconnect_cancels, net_idle_closed,
// net_overrun_closed) and therefore visible via STATS, METRICS and
// GET /metrics.
//
// HTTP: a connection whose first bytes are "GET " is served as a
// one-shot HTTP/1.0 exchange; GET /metrics returns exactly
// QueryService::MetricsText() (the Prometheus text exposition),
// GET /healthz reports serving health — 200 "ok" normally, 503
// "draining" once BeginDrain ran, 503 "shedding" while a new
// *protocol* connection would be shed (connection or session
// capacity) — and any other path returns 404. The response ends the
// connection.
//
// Probes are not query sessions: the shed decision is deferred from
// accept to transport sniff, and only protocol connections count
// against max_connections. A health prober or metrics scraper arriving
// while the server sheds still gets its HTTP answer (503 "shedding" /
// 200 with the exposition) instead of a raw "ERR ResourceExhausted" +
// close — exactly what a cluster front tier needs to tell "shedding"
// apart from "dead". A hard ceiling of max_connections + kProbeSlack
// total sockets still bounds fd usage; beyond it everything sheds at
// accept, probes included.
//
// Applications: the server is protocol-agnostic above the transport.
// It asks its ServerApp for a ConnectionHandler per connection, for
// the GET /metrics body, and for an app-side saturation signal folded
// into the shed/healthz decision. Server::Create(QueryService*, ...)
// wires the classic single-node app (LineProtocol, MetricsText,
// session-slot saturation); src/cluster/ wires a router app over the
// same transport.
//
// Pub/sub transport: SUBSCRIBE/UNSUBSCRIBE/PUBLISH flow through
// LineProtocol like any verb; asynchronous "EVENT ..." frames from the
// service's dispatcher threads land in a per-connection EventBuffer
// side-channel (never touching server state) and the poll thread folds
// them into the ordinary output buffer each tick, so event frames
// interleave between reply blocks but never inside one.
//
// Reply-delivery contract: responses for commands already parsed are
// dropped when the peer disconnects — a client must keep its socket
// open until it has read the replies it wants. Disconnecting early is
// precisely the cancellation signal.
//
// Shutdown: BeginDrain() stops accepting (the listen socket closes, so
// the port frees immediately) while live connections keep being
// served; Stop() closes every quiet connection at once — nothing
// pending, executing or unsent, no open session or subscription — and
// waits up to drain_deadline_ms for the others to finish (each closes
// as soon as it turns quiet), then cancels and closes whatever
// remains, and joins all threads. SIGTERM handling in xsqd maps onto
// exactly this pair.
#ifndef XSQ_NET_SERVER_H_
#define XSQ_NET_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/handler.h"
#include "net/line_protocol.h"
#include "service/query_service.h"

namespace xsq::net {

// The application behind the transport. `make_handler` and `stats` are
// required; empty `metrics_text` answers GET /metrics with 404, empty
// `saturated` means the app never saturates.
struct ServerApp {
  // One handler per connection; called on the poll thread at accept.
  std::function<std::unique_ptr<ConnectionHandler>()> make_handler;
  // Body for GET /metrics.
  std::function<std::string()> metrics_text;
  // App-side shed signal (e.g. session slots exhausted), folded into
  // accept-side shedding and /healthz.
  std::function<bool()> saturated;
  // Counter block for connection-level events (accepts, sheds, idle
  // closes, disconnect cancels).
  service::ServiceStats* stats = nullptr;
};

struct ServerConfig {
  // Listen address. Tests and the default deployment bind loopback.
  std::string bind_address = "127.0.0.1";
  // 0 picks an ephemeral port; read it back with port().
  uint16_t port = 0;
  // Admission control: *protocol* connections beyond this are shed
  // (the reply-then-close happens at transport sniff, so HTTP probes
  // are still served while shedding).
  size_t max_connections = 64;
  // A protocol line larger than this closes the connection with ERR
  // (the stdin transport discards the command but keeps serving; a
  // socket peer that overruns is assumed broken or hostile).
  size_t max_line_bytes = 16u << 20;  // 16 MiB
  // Buffered-but-unsent response bytes beyond this close the
  // connection (slow reader / unread METRICS floods).
  size_t max_output_buffer_bytes = 4u << 20;  // 4 MiB
  // No bytes read or written for this long closes the connection
  // (idle peers, half-open TCP). 0 disables.
  uint64_t idle_timeout_ms = 30000;
  // Responses still undelivered after this long close the connection
  // (write deadline; counts as an overrun close). 0 disables.
  uint64_t write_timeout_ms = 10000;
  // Threads running LineProtocol commands. At least 1. Sized like a
  // thread-per-request pool: a worker is held for the full duration of
  // a blocking CLOSE/RUNCACHED.
  int protocol_workers = 4;
  // Bound on Stop()'s graceful drain before remaining connections are
  // cancelled and closed.
  uint64_t drain_deadline_ms = 2000;
};

class Server {
 public:
  // Binds, listens and starts the poll + worker threads. On success the
  // server is live and port() is the bound port.
  static Result<std::unique_ptr<Server>> Create(
      ServerApp app, ServerConfig config = ServerConfig());

  // The classic single-node binding: LineProtocol handlers over
  // `service`, MetricsText for scrapes, session-slot saturation.
  static Result<std::unique_ptr<Server>> Create(
      service::QueryService* service, ServerConfig config = ServerConfig());

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }

  // Stops accepting new connections (sheds nothing — the listen socket
  // simply closes); established connections keep being served.
  // Idempotent, safe from signal-adjacent contexts (locks, no I/O
  // beyond a pipe write).
  void BeginDrain();

  // BeginDrain, then closes quiet connections and waits up to
  // config.drain_deadline_ms for busy ones to finish; whatever remains
  // is cancelled (sessions abort kCancelled) and closed. Joins all
  // threads. Idempotent.
  void Stop();

  // Live established connections (excludes the listener).
  size_t connection_count() const;

  // Extra sockets beyond max_connections kept for HTTP probes (health
  // checks, metrics scrapers) and not-yet-sniffed peers, so probes
  // are answered while sessions shed; beyond that everything sheds.
  static constexpr size_t kProbeSlack = 8;
  // Parsed-but-unexecuted command lines beyond this close the
  // connection: a peer must not use the server as an unbounded queue.
  static constexpr size_t kMaxPendingLines = 1024;

 private:
  // The async EVENT path between the service's dispatcher threads and
  // the poll thread. A dispatcher delivering a frame must never need
  // the server's mu_ (teardown holds mu_ while blocking on the
  // dispatcher unclaiming the subscriber — touching mu_ from the sink
  // would deadlock), so the sink appends into this side-channel under
  // its own tiny mutex and the poll thread folds pending frames into
  // the connection's output buffer on its next tick.
  struct EventBuffer {
    std::mutex mu;
    std::vector<std::string> pending;  // newline-terminated frames
    bool closed = false;               // connection torn down: drop frames
  };

  struct Connection {
    int fd = -1;
    std::unique_ptr<ConnectionHandler> protocol;
    std::shared_ptr<EventBuffer> events;
    // Bytes read but not yet split into lines. Poll thread only.
    std::string in_buffer;
    // True once in_buffer overran max_line_bytes; remaining input is
    // discarded. Poll thread only.
    bool overran = false;
    // Parsed lines waiting for a protocol worker. Guarded by mu_.
    std::deque<std::string> pending_lines;
    // Response bytes waiting for the socket. Guarded by mu_.
    std::string out_buffer;
    // A worker currently owns pending_lines. Guarded by mu_.
    bool executing = false;
    // Close once out_buffer drains and no worker is executing.
    bool closing = false;
    // Torn down: fd closed, pending dropped; workers must not touch
    // the service for it again. Guarded by mu_.
    bool dead = false;
    // This connection is a one-shot HTTP exchange.
    bool http = false;
    // Transport sniffing done (first bytes decide HTTP vs protocol).
    bool sniffed = false;
    // Counted in http_conns_ (sniffed as HTTP; excluded from the
    // protocol-connection shed accounting).
    bool counted_http = false;
    std::chrono::steady_clock::time_point last_activity;
    // Set while out_buffer is non-empty: when delivery began.
    std::chrono::steady_clock::time_point out_since;
  };

  Server(ServerApp app, ServerConfig config);
  Status Listen();
  void PollLoop();
  void WorkerLoop();

  // All Requires-mu_ helpers run on the poll thread unless noted.
  // True when a new protocol connection would be shed right now
  // (protocol-connection slots or the app's own saturation signal).
  bool SheddingLocked() const;
  void AcceptPendingLocked();
  void ReadFromLocked(const std::shared_ptr<Connection>& conn);
  void WriteToLocked(const std::shared_ptr<Connection>& conn);
  void SplitLinesLocked(const std::shared_ptr<Connection>& conn);
  // Folds frames queued by dispatcher sinks into the output buffer.
  void DrainEventsLocked(const std::shared_ptr<Connection>& conn);
  void HandleHttpLocked(const std::shared_ptr<Connection>& conn);
  void SweepTimeoutsLocked(std::chrono::steady_clock::time_point now);
  // No command pending or executing and no reply waiting to be sent.
  static bool QuietLocked(const Connection& conn);
  // Cancels (counting disconnect_cancels when `abrupt`), releases,
  // closes and unmaps the connection. Any thread holding mu_.
  void TeardownLocked(const std::shared_ptr<Connection>& conn, bool abrupt);
  // Appends `reply` to the connection's output buffer, enforcing the
  // output bound. Any thread holding mu_.
  void QueueOutputLocked(const std::shared_ptr<Connection>& conn,
                         std::string_view reply);
  void ScheduleLocked(const std::shared_ptr<Connection>& conn);
  void WakePoll();

  const ServerApp app_;
  const ServerConfig config_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: runnable non-empty
  std::condition_variable drain_cv_;  // Stop(): connection count changes
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  std::deque<std::shared_ptr<Connection>> runnable_;
  // Connections sniffed as HTTP; conns_.size() - http_conns_ is the
  // protocol-connection count the shed accounting uses.
  size_t http_conns_ = 0;
  bool draining_ = false;
  bool stop_requested_ = false;  // Stop() began: close quiet connections
  bool stopping_ = false;

  std::thread poll_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace xsq::net

#endif  // XSQ_NET_SERVER_H_
