#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>

#include "common/strings.h"

namespace xsq::net {

namespace {

using Deadline = std::chrono::steady_clock::time_point;

Status DecodeErr(std::string_view rest) {
  // rest = "<Code>: <message>"
  size_t colon = rest.find(": ");
  if (colon == std::string_view::npos) {
    return Status::Internal("malformed ERR reply: " + std::string(rest));
  }
  // A code this client does not know (a newer server) decodes as
  // kInternal.
  return Status(
      StatusCodeFromName(rest.substr(0, colon)).value_or(StatusCode::kInternal),
      std::string(rest.substr(colon + 2)));
}

// --- The socket helpers every outbound connection goes through. ---

// A poll() timeout for the time left until `deadline`: one past the
// remaining milliseconds, capped to what poll takes.
int PollMs(Deadline deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now())
                  .count();
  return static_cast<int>(
      std::clamp<int64_t>(left + 1, 0, std::numeric_limits<int>::max()));
}

// A connected non-blocking TCP socket to `target`, within timeout_ms.
Result<int> ConnectWithin(const Endpoint& target, uint64_t timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target.port);
  if (::inet_pton(AF_INET, target.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + target.host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  auto fail = [fd](Status status) {
    ::close(fd);
    return status;
  };
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return fail(Status::ResourceExhausted(std::string("connect: ") +
                                          std::strerror(errno)));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout_ms)) <= 0) {
      return fail(Status::DeadlineExceeded(
          "connect timed out after " + std::to_string(timeout_ms) + "ms"));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return fail(Status::ResourceExhausted(std::string("connect: ") +
                                            std::strerror(err)));
    }
  }
  return fd;
}

// Sends all of `bytes` before `deadline`.
Status SendAll(int fd, std::string_view bytes, Deadline deadline) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::ResourceExhausted(std::string("send: ") +
                                       std::strerror(errno));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("timed out sending");
    }
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, PollMs(deadline));
  }
  return Status::OK();
}

// Appends what one recv returns to *buffer, waiting until `deadline`.
// False when the peer closed the connection.
Result<bool> RecvSome(int fd, std::string* buffer, Deadline deadline) {
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("timed out waiting for a reply");
    }
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, PollMs(deadline));
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;  // deadline re-checked at loop top
    char buf[64 * 1024];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::ResourceExhausted(std::string("recv: ") +
                                       std::strerror(errno));
    }
    buffer->append(buf, static_cast<size_t>(n));
    return true;
  }
}

}  // namespace

std::string Endpoint::ToString() const {
  return host + ":" + std::to_string(port);
}

std::optional<uint16_t> ParsePort(std::string_view text) {
  std::optional<uint64_t> value = ParseUint64(text);  // digits only
  if (!value.has_value() || *value == 0 || *value > 65535) return std::nullopt;
  return static_cast<uint16_t>(*value);
}

std::optional<uint16_t> ParseListenPort(std::string_view text) {
  if (text == "0") return 0;
  return ParsePort(text);
}

std::optional<Endpoint> ParseEndpoint(std::string_view spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return std::nullopt;
  std::optional<uint16_t> port = ParsePort(spec.substr(colon + 1));
  if (!port.has_value()) return std::nullopt;
  return Endpoint{std::string(spec.substr(0, colon)), *port};
}

std::optional<std::vector<Endpoint>> ParseEndpoints(std::string_view list) {
  std::vector<Endpoint> endpoints;
  for (std::string_view spec : Split(list, ',')) {
    std::optional<Endpoint> endpoint = ParseEndpoint(spec);
    if (!endpoint.has_value()) return std::nullopt;
    endpoints.push_back(std::move(*endpoint));
  }
  return endpoints;  // Split yields at least one (possibly empty) entry
}

Result<HttpResponse> HttpGet(const Endpoint& endpoint, std::string_view path,
                             uint64_t timeout_ms) {
  const Deadline deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms);
  XSQ_ASSIGN_OR_RETURN(int fd, ConnectWithin(endpoint, timeout_ms));
  std::string raw = "GET ";
  raw.append(path);
  raw += " HTTP/1.0\r\n\r\n";
  Status sent = SendAll(fd, raw, deadline);
  raw.clear();
  // HTTP/1.0: the server closes after the response, so read to EOF.
  Result<bool> more = true;
  while (sent.ok() && more.ok() && *more) {
    more = RecvSome(fd, &raw, deadline);
  }
  ::close(fd);
  XSQ_RETURN_IF_ERROR(sent);
  XSQ_RETURN_IF_ERROR(more.status());
  // "HTTP/1.0 <code> <reason>\r\n<headers>\r\n\r\n<body>"
  size_t space = raw.find(' ');
  if (raw.rfind("HTTP/", 0) != 0 || space == std::string::npos) {
    return Status::ParseError("not an HTTP response");
  }
  std::optional<uint64_t> code =
      ParseUint64(std::string_view(raw).substr(space + 1, 3));
  if (!code.has_value() || *code == 0) {
    return Status::ParseError("bad HTTP status line");
  }
  size_t body = raw.find("\r\n\r\n");
  return HttpResponse{static_cast<int>(*code),
                      body == std::string::npos ? "" : raw.substr(body + 4)};
}

uint64_t JitterIntervalMs(uint64_t base_ms, SplitMix64* rng) {
  if (base_ms == 0) return 0;
  // Uniform in [0.8, 1.2) of the base: wide enough to decorrelate a
  // fleet, narrow enough that cadence-derived bounds (probe intervals,
  // gossip convergence) stay within one nominal period.
  uint64_t r = rng->Below(1024);
  return (base_ms * 4) / 5 + (base_ms * 2 * r) / 5120;
}

Client::Client(ClientConfig config)
    : config_(std::move(config)), rng_(config_.retry_seed) {
  if (config_.endpoints.empty()) {
    endpoints_.push_back(Endpoint{config_.host, config_.port});
  } else {
    endpoints_ = config_.endpoints;
  }
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  read_buffer_.clear();
  read_offset_ = 0;
}

VerbRetryClass Client::RetryClassFor(std::string_view line) {
  const VerbSpec* verb = FindVerb(line.substr(0, line.find(' ')));
  return verb == nullptr ? VerbRetryClass::kNonIdempotent : verb->retry_class;
}

uint64_t Client::NextBackoffMs(int attempt) {
  uint64_t backoff = config_.backoff_base_ms;
  for (int i = 0; i < attempt && backoff < config_.backoff_max_ms; ++i) {
    backoff *= 2;
  }
  if (backoff > config_.backoff_max_ms) backoff = config_.backoff_max_ms;
  // Jitter in [0.5, 1.0): decorrelates a retrying fleet without ever
  // shortening the base below half.
  uint64_t r = rng_.Below(512);
  return backoff / 2 + (backoff * r) / 1024;
}

void Client::AdvanceEndpoint() {
  if (endpoints_.size() < 2) return;
  endpoint_index_ = (endpoint_index_ + 1) % endpoints_.size();
  ++counters_.failovers;
}

Status Client::ConnectOnce() {
  Close();
  XSQ_ASSIGN_OR_RETURN(fd_, ConnectWithin(endpoints_[endpoint_index_],
                                          config_.connect_timeout_ms));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (counters_.connects > 0) ++counters_.reconnects;
  ++counters_.connects;
  return Status::OK();
}

Status Client::Connect() {
  if (fd_ >= 0) return Status::OK();
  return ConnectOnce();
}

Status Client::ReadLine(std::string* line, Deadline deadline) {
  size_t scan_from = read_offset_;  // bytes before it hold no newline
  for (;;) {
    size_t newline = read_buffer_.find('\n', scan_from);
    if (newline != std::string::npos) {
      line->assign(read_buffer_, read_offset_, newline - read_offset_);
      read_offset_ = newline + 1;
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::OK();
    }
    if (fd_ < 0) return Status::ResourceExhausted("not connected");
    // Drop the consumed prefix once per recv, before appending to it;
    // a long line is scanned once, not once per recv.
    read_buffer_.erase(0, read_offset_);
    read_offset_ = 0;
    scan_from = read_buffer_.size();
    XSQ_ASSIGN_OR_RETURN(bool open, RecvSome(fd_, &read_buffer_, deadline));
    if (!open) return Status::ResourceExhausted("server closed the connection");
  }
}

Result<Response> Client::RequestOnce(std::string_view line) {
  if (fd_ < 0) {
    XSQ_RETURN_IF_ERROR(ConnectOnce());
  }
  const Deadline deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.request_timeout_ms);
  std::string wire(line);
  wire.push_back('\n');
  XSQ_RETURN_IF_ERROR(SendAll(fd_, wire, deadline));
  Response response;
  std::string reply;
  for (;;) {
    XSQ_RETURN_IF_ERROR(ReadLine(&reply, deadline));
    if (reply == "OK" || reply.rfind("OK ", 0) == 0) {
      response.ok_payload = reply.size() > 3 ? reply.substr(3) : std::string();
      response.status = Status::OK();
      return response;
    }
    if (reply.rfind("ERR ", 0) == 0) {
      response.status = DecodeErr(std::string_view(reply).substr(4));
      return response;
    }
    response.lines.push_back(std::move(reply));
  }
}

Result<Response> Client::Request(std::string_view line) {
  const bool retryable =
      RetryClassFor(line) == VerbRetryClass::kIdempotent;
  const int attempts_allowed = retryable ? config_.max_retries + 1 : 1;
  Status last = Status::OK();
  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      ++counters_.retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(NextBackoffMs(attempt - 1)));
    }
    Result<Response> result = RequestOnce(line);
    if (result.ok()) {
      // A shed reply ("ERR ResourceExhausted") is the server asking the
      // client to back off and retry — honor it for idempotent verbs.
      if (retryable && !result->status.ok() &&
          result->status.code() == StatusCode::kResourceExhausted &&
          attempt + 1 < attempts_allowed) {
        last = result->status;
        ++counters_.shed_retries;
        Close();
        continue;
      }
      (*result).attempts = attempt + 1;
      return result;
    }
    last = result.status();
    // Transport failure: the connection is in an unknown state; retries
    // always reconnect — against the NEXT endpoint when several are
    // configured, so an idempotent retry (this loop) or the caller's
    // own recovery (non-idempotent verbs return after this attempt)
    // lands on a surviving router.
    Close();
    AdvanceEndpoint();
  }
  return last;
}

}  // namespace xsq::net
