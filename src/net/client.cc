#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace xsq::net {

namespace {

// splitmix64: a tiny deterministic stream for backoff jitter.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

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

}  // namespace

uint64_t JitterIntervalMs(uint64_t base_ms, uint64_t* rng_state) {
  if (base_ms == 0) return 0;
  // Uniform in [0.8, 1.2) of the base: wide enough to decorrelate a
  // fleet, narrow enough that cadence-derived bounds (probe intervals,
  // gossip convergence) stay within one nominal period.
  uint64_t r = SplitMix64(rng_state) % 1024;
  return (base_ms * 4) / 5 + (base_ms * 2 * r) / 5120;
}

Client::Client(ClientConfig config)
    : config_(std::move(config)), rng_state_(config_.retry_seed) {
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
  uint64_t r = SplitMix64(&rng_state_) % 512;
  return backoff / 2 + (backoff * r) / 1024;
}

void Client::AdvanceEndpoint() {
  if (endpoints_.size() < 2) return;
  endpoint_index_ = (endpoint_index_ + 1) % endpoints_.size();
  ++counters_.failovers;
}

Status Client::ConnectOnce() {
  Close();
  const Endpoint& target = endpoints_[endpoint_index_];
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target.port);
  if (::inet_pton(AF_INET, target.host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + target.host);
  }
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status status = Status::ResourceExhausted(std::string("connect: ") +
                                              std::strerror(errno));
    Close();
    return status;
  }
  if (rc != 0) {
    pollfd pfd{fd_, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(config_.connect_timeout_ms));
    if (ready <= 0) {
      Close();
      return Status::DeadlineExceeded("connect timed out after " +
                                      std::to_string(config_.connect_timeout_ms) +
                                      "ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      Close();
      return Status::ResourceExhausted(std::string("connect: ") +
                                       std::strerror(err));
    }
  }
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

Status Client::ReadLine(std::string* line,
                        std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    size_t newline = read_buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(read_buffer_, 0, newline);
      read_buffer_.erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::OK();
    }
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded("request timed out waiting for reply");
    }
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()) + 1);
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;  // deadline re-checked at loop top
    char buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status::ResourceExhausted("server closed the connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::ResourceExhausted(std::string("recv: ") +
                                       std::strerror(errno));
    }
    read_buffer_.append(buf, static_cast<size_t>(n));
  }
}

Result<Response> Client::RequestOnce(std::string_view line) {
  if (fd_ < 0) {
    XSQ_RETURN_IF_ERROR(ConnectOnce());
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(config_.request_timeout_ms);
  std::string wire(line);
  wire.push_back('\n');
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        if (std::chrono::steady_clock::now() >= deadline) {
          return Status::DeadlineExceeded("request timed out sending");
        }
        pollfd pfd{fd_, POLLOUT, 0};
        ::poll(&pfd, 1, 10);
        continue;
      }
      return Status::ResourceExhausted(std::string("send: ") +
                                       std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
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
