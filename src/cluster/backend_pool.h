// Backend: one xsqd shard as seen by the router — a connection pool,
// a circuit breaker, and a health flag.
//
// Two kinds of traffic hit a shard and they need different transport
// shapes:
//
//   - Stateless verbs (RECORD, RUNCACHED bindings aside, EVICT, STATS,
//     METRICS, CANCEL) multiplex over a small pool of shared
//     connections: Request() leases one for the duration of a single
//     request/reply exchange and returns it. The pool grows on demand
//     up to max_pool_conns and callers beyond that wait briefly.
//   - Stateful sessions (OPEN..CLOSE) must live on a connection of
//     their own, because a shard ties session cleanup to connection
//     lifetime: the peer disconnecting is the cancellation signal.
//     LeaseExclusive() hands the caller a dedicated client the pool
//     never sees again; dropping it closes the socket and the shard
//     cancels + releases everything opened on it.
//
// The circuit breaker watches Request() outcomes: breaker_threshold
// consecutive transport failures open the circuit for
// breaker_cooldown_ms, during which Request() fails fast with
// ResourceExhausted instead of burning a connect timeout per call.
// After the cooldown one probe request is allowed through (half-open);
// success closes the circuit. An "ERR" reply from the shard is a
// healthy transport — it never trips the breaker.
//
// Health (set by the HealthProber, read by routing) is advisory state
// alongside the breaker: the breaker reacts in-line within
// milliseconds, the prober flips health on the probe cadence.
#ifndef XSQ_CLUSTER_BACKEND_POOL_H_
#define XSQ_CLUSTER_BACKEND_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "obs/histogram.h"

namespace xsq::cluster {

// What a new protocol request would experience on the shard, as
// reported by its /healthz endpoint.
enum class ShardHealth {
  kServing,   // 200 ok
  kShedding,  // 503 shedding: at capacity, retry elsewhere
  kDraining,  // 503 draining: listener closed, existing work finishing
  kDead,      // probes failing; presumed down until one succeeds
};

const char* ShardHealthName(ShardHealth health);

struct BackendConfig {
  // Shared connections for stateless multiplexed requests.
  size_t max_pool_conns = 4;
  uint64_t connect_timeout_ms = 1000;
  // Per-request deadline (send + full reply block).
  uint64_t request_timeout_ms = 5000;
  // Consecutive transport failures that open the circuit.
  int breaker_threshold = 3;
  uint64_t breaker_cooldown_ms = 500;
  // In-client retry budget for idempotent verbs on THIS shard (the
  // router's cross-shard failover sits above this).
  int client_max_retries = 1;
  uint64_t retry_seed = 0x9e3779b97f4a7c15ull;
};

class Backend {
 public:
  // `latency_us` (optional) records each pooled request's wall time.
  Backend(net::Endpoint address, BackendConfig config,
          obs::Histogram* latency_us = nullptr);

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // One stateless request over a pooled connection. Thread-safe.
  // Fails fast with ResourceExhausted while the circuit is open.
  Result<net::Response> Request(std::string_view line);

  // A dedicated connection for a stateful session conversation; the
  // caller owns it outright. Exclusive leases are session-lifetime,
  // not request-lifetime, so they are intentionally NOT part of the
  // outstanding() load signal — session placement balances on
  // in-flight requests, not idle open sockets.
  Result<std::unique_ptr<net::Client>> LeaseExclusive();

  const net::Endpoint& address() const { return address_; }

  ShardHealth health() const {
    return static_cast<ShardHealth>(health_.load(std::memory_order_relaxed));
  }
  void set_health(ShardHealth health) {
    health_.store(static_cast<int>(health), std::memory_order_relaxed);
  }
  // On the ring (reachable, possibly degraded) vs off it.
  bool alive() const { return health() != ShardHealth::kDead; }
  // Accepting new protocol work at full capacity.
  bool serving() const { return health() == ShardHealth::kServing; }

  // Pooled requests in flight right now (least-outstanding routing).
  size_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

  struct Counters {
    uint64_t requests = 0;         // pooled requests attempted
    uint64_t failures = 0;         // transport-level failures
    uint64_t breaker_rejects = 0;  // failed fast on an open circuit
    uint64_t breaker_opens = 0;    // times the circuit tripped
  };
  Counters counters() const;

  // Breaker introspection for tests.
  bool circuit_open() const;

 private:
  std::unique_ptr<net::Client> AcquireLocked(std::unique_lock<std::mutex>* lock,
                                             Status* error);
  void ReleasePooled(std::unique_ptr<net::Client> client);
  net::ClientConfig MakeClientConfig() const;
  void RecordOutcome(bool transport_ok);

  const net::Endpoint address_;
  const BackendConfig config_;
  obs::Histogram* latency_us_;

  std::atomic<int> health_{static_cast<int>(ShardHealth::kServing)};
  std::atomic<size_t> outstanding_{0};

  mutable std::mutex mu_;
  std::condition_variable pool_cv_;
  std::vector<std::unique_ptr<net::Client>> idle_;
  size_t pooled_total_ = 0;  // idle + leased-out pooled clients
  uint64_t lease_seq_ = 0;   // distinct retry seed per client

  // Breaker state, guarded by mu_.
  int consecutive_failures_ = 0;
  bool half_open_probe_ = false;  // one request allowed through
  std::chrono::steady_clock::time_point open_until_{};

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> breaker_rejects_{0};
  std::atomic<uint64_t> breaker_opens_{0};
};

}  // namespace xsq::cluster

#endif  // XSQ_CLUSTER_BACKEND_POOL_H_
