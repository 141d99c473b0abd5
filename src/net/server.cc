#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoints.h"

namespace xsq::net {

namespace {

// The accept-side shed reply uses the protocol's error grammar so a
// protocol client can decode it like any other failure.
constexpr char kShedReply[] =
    "ERR ResourceExhausted: server at capacity; retry later\n";

// HTTP requests are tiny (request line + a few headers); anything
// larger is not a metrics scraper.
constexpr size_t kMaxHttpRequestBytes = 16 * 1024;

std::string HttpResponse(int code, const char* reason,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out +=
      "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
      "\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

Server::Server(ServerApp app, ServerConfig config)
    : app_(std::move(app)), config_(std::move(config)) {}

Result<std::unique_ptr<Server>> Server::Create(service::QueryService* service,
                                               ServerConfig config) {
  if (service == nullptr) {
    return Status::InvalidArgument("net::Server needs a QueryService");
  }
  ServerApp app;
  app.make_handler = [service] {
    return std::make_unique<LineProtocol>(service);
  };
  app.metrics_text = [service] { return service->MetricsText(); };
  app.saturated = [service] {
    return service->active_sessions() >= service->config().max_sessions;
  };
  app.stats = service->stats_sink();
  return Create(std::move(app), std::move(config));
}

Result<std::unique_ptr<Server>> Server::Create(ServerApp app,
                                               ServerConfig config) {
  if (!app.make_handler) {
    return Status::InvalidArgument("ServerApp needs a handler factory");
  }
  if (app.stats == nullptr) {
    return Status::InvalidArgument("ServerApp needs a stats sink");
  }
  std::unique_ptr<Server> server(new Server(std::move(app), std::move(config)));
  XSQ_RETURN_IF_ERROR(server->Listen());
  int workers =
      server->config_.protocol_workers < 1 ? 1 : server->config_.protocol_workers;
  server->workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    server->workers_.emplace_back([raw = server.get()] { raw->WorkerLoop(); });
  }
  server->poll_thread_ = std::thread([raw = server.get()] { raw->PollLoop(); });
  return server;
}

Server::~Server() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Status Server::Listen() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    return Status::Internal(std::string("pipe2: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  return Status::OK();
}

void Server::WakePoll() {
  char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

void Server::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  WakePoll();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !poll_thread_.joinable()) return;  // already stopped
    draining_ = true;
    stop_requested_ = true;
  }
  WakePoll();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (config_.drain_deadline_ms > 0) {
      drain_cv_.wait_for(lock,
                         std::chrono::milliseconds(config_.drain_deadline_ms),
                         [this] { return conns_.empty(); });
    }
    stopping_ = true;
  }
  WakePoll();
  work_cv_.notify_all();
  if (poll_thread_.joinable()) poll_thread_.join();
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

size_t Server::connection_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

void Server::ScheduleLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->executing || conn->dead || conn->pending_lines.empty()) return;
  conn->executing = true;
  runnable_.push_back(conn);
  work_cv_.notify_one();
}

void Server::QueueOutputLocked(const std::shared_ptr<Connection>& conn,
                               std::string_view reply) {
  if (conn->dead || reply.empty()) return;
  if (conn->out_buffer.empty()) {
    conn->out_since = std::chrono::steady_clock::now();
  }
  conn->out_buffer.append(reply);
  if (conn->out_buffer.size() > config_.max_output_buffer_bytes) {
    // Slow (or absent) reader: shed the backlog instead of buffering
    // without bound. The grace line may land mid-reply — the peer is
    // being terminated for falling behind, framing is best effort.
    conn->out_buffer =
        "ERR ResourceExhausted: output buffer overflow; closing\n";
    conn->pending_lines.clear();
    conn->closing = true;
    conn->protocol->CancelAll();
    app_.stats->Add(service::Stat::net_overrun_closed);
  }
}

void Server::TeardownLocked(const std::shared_ptr<Connection>& conn,
                            bool abrupt) {
  if (conn->dead) return;
  conn->dead = true;
  conn->pending_lines.clear();
  if (conn->events != nullptr) {
    std::lock_guard<std::mutex> events_lock(conn->events->mu);
    conn->events->closed = true;
    conn->events->pending.clear();
  }
  size_t cancelled = conn->protocol->CancelAll();
  if (abrupt && cancelled > 0) {
    app_.stats->Add(service::Stat::disconnect_cancels, cancelled);
  }
  // ReleaseAll deregisters the connection's subscriber, blocking until
  // no dispatcher is mid-delivery. Safe under mu_: the event sink only
  // ever takes the EventBuffer mutex, never ours.
  conn->protocol->ReleaseAll();
  if (conn->counted_http) {
    conn->counted_http = false;
    --http_conns_;
  }
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conns_.erase(conn->fd);
    conn->fd = -1;
  }
  drain_cv_.notify_all();
}

bool Server::SheddingLocked() const {
  // Only protocol conversations consume capacity slots; HTTP probes
  // (metrics scrapers, health checkers) are excluded so observability
  // keeps working exactly when the operator needs it most.
  size_t protocol_conns = conns_.size() - http_conns_;
  if (protocol_conns >= config_.max_connections) return true;
  return app_.saturated && app_.saturated();
}

void Server::AcceptPendingLocked() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a transient accept error: try later
    // The shed *decision* is deferred until the transport is sniffed
    // (SplitLinesLocked) so HTTP probes are served even at capacity.
    // Only the hard fd cap — capacity plus the probe allowance — sheds
    // at accept, bounding descriptors a flood can pin.
    bool shed =
        conns_.size() >= config_.max_connections + config_.probe_slack;
    XSQ_FAILPOINT("net.accept.shed", shed = true);
    if (shed) {
      // Best effort: tell the peer why before closing. A full socket
      // buffer just means the close is the message.
      ssize_t ignored = ::send(fd, kShedReply, sizeof(kShedReply) - 1,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      (void)ignored;
      ::close(fd);
      app_.stats->Add(service::Stat::connections_shed);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->protocol = app_.make_handler();
    conn->events = std::make_shared<EventBuffer>();
    // The sink runs on service dispatcher threads: append to the
    // side-channel under its own mutex, then nudge the poll thread so
    // the frame ships on the next tick. It must not touch server mu_.
    conn->protocol->SetEventSink(
        [this, events = conn->events](std::string_view frame) {
          {
            std::lock_guard<std::mutex> events_lock(events->mu);
            if (events->closed) return;
            std::string line(frame);
            line.push_back('\n');
            events->pending.push_back(std::move(line));
          }
          WakePoll();
        });
    conn->last_activity = std::chrono::steady_clock::now();
    conns_.emplace(fd, std::move(conn));
    app_.stats->Add(service::Stat::connections_accepted);
  }
}

void Server::DrainEventsLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->dead || conn->events == nullptr) return;
  std::vector<std::string> frames;
  {
    std::lock_guard<std::mutex> events_lock(conn->events->mu);
    if (conn->events->pending.empty()) return;
    frames.swap(conn->events->pending);
  }
  for (const std::string& frame : frames) {
    QueueOutputLocked(conn, frame);
    if (conn->dead || conn->closing) break;  // overflow shed the rest
  }
}

void Server::HandleHttpLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->closing) return;
  if (conn->in_buffer.size() > kMaxHttpRequestBytes) {
    app_.stats->Add(service::Stat::net_overrun_closed);
    TeardownLocked(conn, false);
    return;
  }
  size_t end = conn->in_buffer.find("\r\n\r\n");
  size_t lf = conn->in_buffer.find("\n\n");
  if (end == std::string::npos &&
      lf == std::string::npos) {
    // Headers not complete yet; but a bare "GET /path HTTP/1.0\n" with
    // no further headers is also a complete HTTP/1.0 request once a
    // newline arrives and the peer pauses — accept the common curl/nc
    // shapes by requiring only the request line.
    if (conn->in_buffer.find('\n') == std::string::npos) return;
  }
  size_t line_end = conn->in_buffer.find('\n');
  std::string_view request_line(conn->in_buffer.data(), line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  // "GET /metrics HTTP/1.0" -> path between the two spaces.
  size_t first_space = request_line.find(' ');
  size_t second_space = request_line.find(' ', first_space + 1);
  std::string_view path =
      first_space == std::string_view::npos
          ? std::string_view()
          : request_line.substr(
                first_space + 1,
                second_space == std::string_view::npos
                    ? std::string_view::npos
                    : second_space - first_space - 1);
  std::string response;
  if (path == "/metrics" && app_.metrics_text) {
    response = HttpResponse(200, "OK", app_.metrics_text());
  } else if (path == "/healthz") {
    // Health tracks what a new protocol client would experience right
    // now: draining means the listener is gone, shedding means a
    // protocol conversation would be turned away (connection slots or
    // session slots exhausted — the same SheddingLocked condition the
    // sniff enforces). The probe's own connection is HTTP-counted, so
    // it never tips the scale it is reading.
    if (draining_) {
      response = HttpResponse(503, "Service Unavailable", "draining\n");
    } else if (SheddingLocked()) {
      response = HttpResponse(503, "Service Unavailable", "shedding\n");
    } else {
      response = HttpResponse(200, "OK", "ok\n");
    }
  } else {
    response = HttpResponse(404, "Not Found", "not found\n");
  }
  conn->in_buffer.clear();
  QueueOutputLocked(conn, response);
  conn->closing = true;
}

void Server::SplitLinesLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->dead || conn->closing || conn->overran) {
    conn->in_buffer.clear();
    return;
  }
  if (!conn->sniffed) {
    if (conn->in_buffer.size() >= 4) {
      conn->sniffed = true;
      conn->http = conn->in_buffer.compare(0, 4, "GET ") == 0;
    } else if (conn->in_buffer.find('\n') != std::string::npos) {
      conn->sniffed = true;  // a full (tiny) protocol line before 4 bytes
    } else {
      return;  // wait for more bytes before deciding the transport
    }
    if (conn->http) {
      // Probes don't occupy capacity slots — see SheddingLocked.
      conn->counted_http = true;
      ++http_conns_;
    } else {
      // Deferred shed: the peer revealed itself as a protocol client,
      // so the capacity decision formerly made at accept applies now.
      // Exclude this connection from the count — it IS the candidate.
      bool over = (conns_.size() - http_conns_ - 1) >=
                      config_.max_connections ||
                  (app_.saturated && app_.saturated());
      if (over) {
        conn->in_buffer.clear();
        conn->pending_lines.clear();
        conn->closing = true;
        QueueOutputLocked(conn, kShedReply);
        app_.stats->Add(service::Stat::connections_shed);
        return;
      }
    }
  }
  if (conn->http) {
    HandleHttpLocked(conn);
    return;
  }
  size_t begin = 0;
  for (;;) {
    size_t newline = conn->in_buffer.find('\n', begin);
    if (newline == std::string::npos) break;
    size_t length = newline - begin;
    if (length > config_.max_line_bytes) {
      conn->overran = true;
      break;
    }
    conn->pending_lines.emplace_back(conn->in_buffer, begin, length);
    begin = newline + 1;
  }
  conn->in_buffer.erase(0, begin);
  if (!conn->overran && conn->in_buffer.size() > config_.max_line_bytes) {
    conn->overran = true;  // unbounded line still streaming in
  }
  if (!conn->overran &&
      conn->pending_lines.size() > config_.max_pending_lines) {
    conn->overran = true;  // command flood: the peer is not reading replies
  }
  if (conn->overran) {
    // Unlike the stdin transport (which discards the command and keeps
    // serving its one trusted caller), a socket peer that overruns the
    // line bound is assumed broken or hostile: reply, then close.
    conn->in_buffer.clear();
    conn->pending_lines.clear();
    conn->closing = true;
    QueueOutputLocked(conn,
                      LineProtocol::OversizedLineReply(config_.max_line_bytes) +
                          "\n");
    app_.stats->Add(service::Stat::net_overrun_closed);
    return;
  }
  ScheduleLocked(conn);
}

void Server::ReadFromLocked(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  for (;;) {
    XSQ_FAILPOINT("net.read.fail", {
      TeardownLocked(conn, true);
      return;
    });
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      // Peer closed. If we were already finishing the conversation
      // (QUIT or an error close) this is the expected end; otherwise it
      // is an abandonment — cancel everything the peer started.
      TeardownLocked(conn, /*abrupt=*/!conn->closing);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      TeardownLocked(conn, true);
      return;
    }
    conn->last_activity = std::chrono::steady_clock::now();
    if (!conn->closing && !conn->dead) {
      conn->in_buffer.append(buf, static_cast<size_t>(n));
    }
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  SplitLinesLocked(conn);
}

void Server::WriteToLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->dead || conn->out_buffer.empty()) return;
  XSQ_FAILPOINT("net.write.fail", {
    TeardownLocked(conn, true);
    return;
  });
  ssize_t n = ::send(conn->fd, conn->out_buffer.data(),
                     conn->out_buffer.size(), MSG_NOSIGNAL);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    TeardownLocked(conn, true);
    return;
  }
  conn->out_buffer.erase(0, static_cast<size_t>(n));
  conn->last_activity = std::chrono::steady_clock::now();
  if (!conn->out_buffer.empty()) {
    conn->out_since = conn->last_activity;
  }
}

void Server::SweepTimeoutsLocked(std::chrono::steady_clock::time_point now) {
  std::vector<std::shared_ptr<Connection>> idle_victims;
  std::vector<std::shared_ptr<Connection>> write_victims;
  for (auto& [fd, conn] : conns_) {
    if (conn->dead) continue;
    if (config_.write_timeout_ms > 0 && !conn->out_buffer.empty() &&
        now - conn->out_since >
            std::chrono::milliseconds(config_.write_timeout_ms)) {
      write_victims.push_back(conn);
      continue;
    }
    // A connection whose command is still executing (or queued) is not
    // idle — the peer is legitimately waiting for a long evaluation.
    if (config_.idle_timeout_ms > 0 && QuietLocked(*conn) &&
        now - conn->last_activity >
            std::chrono::milliseconds(config_.idle_timeout_ms)) {
      idle_victims.push_back(conn);
    }
  }
  for (auto& conn : write_victims) {
    app_.stats->Add(service::Stat::net_overrun_closed);
    TeardownLocked(conn, false);
  }
  for (auto& conn : idle_victims) {
    app_.stats->Add(service::Stat::net_idle_closed);
    TeardownLocked(conn, false);
  }
}

bool Server::QuietLocked(const Connection& conn) {
  return !conn.executing && conn.pending_lines.empty() &&
         conn.out_buffer.empty();
}

void Server::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  for (;;) {
    fds.clear();
    polled.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_ && listen_fd_ >= 0) {
        ::close(listen_fd_);  // frees the port immediately
        listen_fd_ = -1;
      }
      if (stopping_) {
        std::vector<std::shared_ptr<Connection>> all;
        all.reserve(conns_.size());
        for (auto& [fd, conn] : conns_) all.push_back(conn);
        for (auto& conn : all) TeardownLocked(conn, false);
        return;
      }
      fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
      if (listen_fd_ >= 0) {
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      }
      for (auto& [fd, conn] : conns_) {
        short events = POLLIN;
        if (!conn->out_buffer.empty()) events |= POLLOUT;
        fds.push_back(pollfd{fd, events, 0});
        polled.push_back(conn);
      }
    }
    ::poll(fds.data(), fds.size(), 50);
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t index = 0;
      if (fds[index].revents & POLLIN) {
        char drain[256];
        while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
        }
      }
      ++index;
      if (listen_fd_ >= 0) {
        if (fds[index].revents & POLLIN) AcceptPendingLocked();
        ++index;
      }
      for (size_t i = 0; i < polled.size(); ++i, ++index) {
        const std::shared_ptr<Connection>& conn = polled[i];
        if (conn->dead) continue;
        short revents = fds[index].revents;
        if (revents & POLLOUT) WriteToLocked(conn);
        if (conn->dead) continue;
        if (revents & (POLLIN | POLLHUP | POLLERR)) ReadFromLocked(conn);
      }
      // Ship asynchronous EVENT frames queued by dispatcher sinks.
      for (auto& [fd, conn] : conns_) DrainEventsLocked(conn);
      // Reap conversations that are over: everything executed, every
      // reply delivered, close requested. Once Stop() began, a quiet
      // conversation holding no state is over too: waiting out the
      // drain deadline for an idle peer (a router's pooled connection)
      // would only delay shutdown.
      std::vector<std::shared_ptr<Connection>> done;
      for (auto& [fd, conn] : conns_) {
        if (conn->dead || !QuietLocked(*conn)) continue;
        if (conn->closing ||
            (stop_requested_ && conn->in_buffer.empty() &&
             !conn->protocol->HoldsState())) {
          done.push_back(conn);
        }
      }
      for (auto& conn : done) TeardownLocked(conn, false);
      SweepTimeoutsLocked(std::chrono::steady_clock::now());
    }
  }
}

void Server::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !runnable_.empty(); });
    if (runnable_.empty()) {
      if (stopping_) return;
      continue;
    }
    std::shared_ptr<Connection> conn = std::move(runnable_.front());
    runnable_.pop_front();
    while (!conn->dead && !conn->pending_lines.empty()) {
      std::string line = std::move(conn->pending_lines.front());
      conn->pending_lines.pop_front();
      lock.unlock();
      // Unlocked: HandleLine may block inside the service (CLOSE waits
      // for the evaluation; that is when disconnect-cancellation from
      // the poll thread matters).
      std::string replies;
      bool keep_going = conn->protocol->HandleLine(line, &replies);
      lock.lock();
      QueueOutputLocked(conn, replies);
      if (!keep_going) {
        conn->pending_lines.clear();
        conn->closing = true;
        break;
      }
    }
    conn->executing = false;
    WakePoll();  // deliver replies; reap if the conversation ended
  }
}

}  // namespace xsq::net
