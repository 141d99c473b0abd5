// net::Client: a blocking TCP client for the xsqd line protocol with
// timeouts, safe retries, and multi-endpoint failover.
//
// One Request() sends one protocol line and reads reply lines until the
// terminating "OK ..." or "ERR <Code>: <message>", all under a single
// request deadline; connect() itself is bounded by a connect timeout
// (non-blocking connect + poll). Transport failures — refused or timed
// out connects, resets, a deadline with no terminator — are retried
// with jittered exponential backoff, but ONLY for idempotent verbs:
// each verb's retry class is its row in the verb table (net/verbs.h),
// and a verb missing from it gets the conservative kNonIdempotent.
//
// An "ERR" reply is NOT retried regardless of verb: the server
// answered; the request failed for a reason retrying will not change
// (except ResourceExhausted shed replies, which ARE retried for
// idempotent verbs — that is exactly what load shedding asks of a
// client).
//
// The jitter source is a deterministic splitmix64 stream seeded from
// ClientConfig::retry_seed, so tests get reproducible backoff
// schedules without any wall-clock or global RNG dependence.
//
// Failover: ClientConfig::endpoints may list several HOST:PORT targets
// (e.g. two active-active routers). Every transport failure advances
// the client to the next endpoint in round-robin order before the next
// connect, so an idempotent verb's automatic retry lands on the
// survivor, and a NON-idempotent verb — which still surfaces its
// transport error after one attempt — leaves the client pointed at the
// next endpoint: the caller's recovery (re-OPEN, replay the session)
// transparently runs against the surviving router. An ERR reply never
// advances the endpoint: the server answered; moving would just forfeit
// session affinity.
//
// Not thread safe; one Client per conversation, like one socket.
#ifndef XSQ_NET_CLIENT_H_
#define XSQ_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/verbs.h"

namespace xsq::net {

// One HOST:PORT target for multi-endpoint failover.
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Failover targets. When non-empty this list replaces host/port
  // entirely; the client starts at endpoints[0] and advances
  // round-robin on every transport failure.
  std::vector<Endpoint> endpoints;
  uint64_t connect_timeout_ms = 2000;
  // Deadline for one attempt of one request (send + replies).
  uint64_t request_timeout_ms = 5000;
  // Extra attempts after the first, idempotent verbs only.
  int max_retries = 2;
  uint64_t backoff_base_ms = 20;
  uint64_t backoff_max_ms = 500;
  // Seed for the deterministic jitter stream.
  uint64_t retry_seed = 0x9e3779b97f4a7c15ull;
};

// One decoded reply block.
struct Response {
  // OK() for an "OK ..." terminator; the decoded code/message for
  // "ERR <Code>: <message>".
  Status status;
  // Payload lines before the terminator, verbatim (ITEM/AGG/STAT/
  // METRIC ... still carrying their tag and escaping).
  std::vector<std::string> lines;
  // The text after "OK " on the terminator (e.g. the session id for
  // OPEN, "<events> <bytes>" for RECORD). Empty for a bare "OK".
  std::string ok_payload;
  // Attempts used (1 = no retry).
  int attempts = 1;
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Establishes the connection (bounded by connect_timeout_ms). The
  // first Request() connects implicitly; this exists for callers that
  // want the connect error eagerly.
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Sends `line` (newline appended) and reads the reply block. Decodes
  // the terminator into Response::status; transport errors are returned
  // as the Result's status (after retries when the verb allows them).
  Result<Response> Request(std::string_view line);

  // The retry class of `line`'s verb (the word before the first
  // space), from the verb table. Unknown verbs classify as
  // kNonIdempotent: a server newer than this client gets the
  // conservative treatment.
  static VerbRetryClass RetryClassFor(std::string_view line);

  // Lifetime transport counters, for pools and tests that need to see
  // how hard this client has been fighting the network.
  struct Counters {
    uint64_t connects = 0;      // successful ConnectOnce calls
    uint64_t reconnects = 0;    // connects after the first
    uint64_t retries = 0;       // request attempts beyond the first
    uint64_t shed_retries = 0;  // retries honoring an ERR ResourceExhausted
    uint64_t failovers = 0;     // endpoint advances on transport failure
  };
  const Counters& counters() const { return counters_; }

  // The endpoint the next connect will target (index into the resolved
  // endpoint list; a single-endpoint client always reports 0).
  size_t endpoint_index() const { return endpoint_index_; }
  size_t endpoint_count() const { return endpoints_.size(); }

 private:
  Status ConnectOnce();
  Result<Response> RequestOnce(std::string_view line);
  Status ReadLine(std::string* line,
                  std::chrono::steady_clock::time_point deadline);
  uint64_t NextBackoffMs(int attempt);
  void AdvanceEndpoint();

  ClientConfig config_;
  std::vector<Endpoint> endpoints_;  // resolved: config endpoints or host/port
  size_t endpoint_index_ = 0;
  int fd_ = -1;
  std::string read_buffer_;
  uint64_t rng_state_;
  Counters counters_;
};

// A jittered interval in [0.8 * base_ms, 1.2 * base_ms), driven by the
// same deterministic splitmix64 stream the retry backoff uses. Shared
// by the periodic loops that must not synchronize across processes —
// health probing, gossip anti-entropy — so a fleet of routers probing
// the same shards decorrelates instead of storming them in lockstep.
uint64_t JitterIntervalMs(uint64_t base_ms, uint64_t* rng_state);

}  // namespace xsq::net

#endif  // XSQ_NET_CLIENT_H_
