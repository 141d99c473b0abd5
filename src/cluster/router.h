// Router: the cluster front tier. Speaks the xsqd line protocol to
// clients and fans out to N backend xsqd shards.
//
//        clients (xsq_client, anything speaking the line protocol)
//            |
//            v
//   net::Server  --- ServerApp --->  cluster::Router
//            |                          |  ShardMap (consistent hash)
//            |                          |  Backend per shard (pool +
//            |                          |    circuit breaker + health)
//            |                          |  HealthProber (GET /healthz)
//            v                          v
//        RouterHandler  ----leases----> shard xsqd processes
//
// Placement rules:
//   - Document keys (RECORD / RUNCACHED / EVICT <name>) hash onto the
//     consistent ring: a document's tape lives on its primary ring
//     owner, so RECORD and every later RUNCACHED of that name agree on
//     the shard with zero coordination. With replication factor rf >= 2
//     the tape ALSO lives on the next rf-1 distinct ring owners
//     (ShardMap::Owners), populated asynchronously by the Replicator's
//     fanout queue; the ring walk order doubles as the failover order,
//     so when the primary dies reads land on a shard already holding
//     the tape — no client re-record. When a shard dies, only its keys
//     remap (to the next ring point), within one probe interval, and
//     anti-entropy re-replicates its keys from surviving holders.
//   - Stateless work (RECORD bytes, scatter verbs) balances by ring
//     or fan-out over pooled multiplexed connections with per-request
//     deadlines; idempotent verbs fail over to the next live owner
//     with the failure counted, non-idempotent verbs surface the
//     error to the caller who knows the conversation state.
//   - Sessions (OPEN..CLOSE) are placed on the serving shard with the
//     fewest outstanding requests and bound to a dedicated leased
//     connection, because shards tie session cleanup to connection
//     lifetime. A client disconnecting from the router cancels its
//     backend sessions (async CANCELs over the pool, then the lease
//     closes and the shard releases everything).
//
// Session verbs and routing: OPEN picks the session's primary shard;
// PUSH/DRAIN/CLOSE follow the primary binding. RUNCACHED <id> <name>
// runs on <name>'s ring owner: the router lazily opens a binding
// (same query, owner shard) and reuses it for later RUNCACHEDs of
// co-located documents. Session ids the client sees are router ids;
// backend ids never leak. Sessions are connection-scoped at the
// router (PUSH/DRAIN/CLOSE/RUNCACHED must arrive on the connection
// that OPENed) — except CANCEL, which works from any connection, like
// single-node xsqd. Shard-only verbs in the net/verbs.h table
// (SUBSCRIBE/UNSUBSCRIBE/PUBLISH, REPLPULL) are not routed: standing
// queries and tape transfer are per-shard state, and the answer is
// NotSupported.
//
// Observability: STATS scatter-gathers every live shard's STATS and
// merges the snapshots; METRICS and GET /metrics merge the shards'
// expositions via obs::Exposition (histograms merge bucket-wise) and
// append the router's own xsq_router_* section. Both merges fold each
// scalar by its row's rule in service/stats.h (sums, except the
// high-water marks and xsq_obs_enabled, which max). A shard that
// cannot be scraped live falls back to the prober's cached exposition
// when available and is otherwise skipped, counted in
// xsq_router_scatter_failures_total.
#ifndef XSQ_CLUSTER_ROUTER_H_
#define XSQ_CLUSTER_ROUTER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/gossip.h"
#include "cluster/health.h"
#include "cluster/replication.h"
#include "cluster/shard_map.h"
#include "common/status.h"
#include "net/handler.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/registry.h"
#include "service/stats.h"

// The router's own METRICS section, each scalar declared once. A row
// X(field, kind) makes the Router::OwnCounters field `field` and the
// scalar xsq_router_<field> of exposition type obs::ScalarKind::kind,
// rendered in this order after the merged shard families. The first
// five rows are counted by the router itself; the rest are read from
// the replicator, the gossip agent, the backends and the router's own
// net::Server at scrape time. Router scalars are never merged: each
// router renders its own.
#define XSQ_ROUTER_SCALARS(X)           \
  X(requests_total, kCounter)           \
  X(sessions_opened_total, kCounter)    \
  X(failovers_total, kCounter)          \
  X(scatter_failures_total, kCounter)   \
  X(cancels_enqueued_total, kCounter)   \
  X(repl_pending, kGauge)               \
  X(repl_repaired_total, kCounter)      \
  X(repl_failed_total, kCounter)        \
  X(repl_fanouts_total, kCounter)       \
  X(repl_sweeps_total, kCounter)        \
  X(gossip_rounds_total, kCounter)      \
  X(gossip_merges_total, kCounter)      \
  X(gossip_peer_down_total, kCounter)   \
  X(gossip_peers_down, kGauge)          \
  X(shards_serving, kGauge)             \
  X(shards_dead, kGauge)                \
  X(breaker_opens_total, kCounter)      \
  X(connections_accepted, kCounter)     \
  X(connections_shed, kCounter)         \
  X(disconnect_cancels, kCounter)       \
  X(net_idle_closed, kCounter)          \
  X(net_overrun_closed, kCounter)

namespace xsq::cluster {

enum class RouterScalar {
#define XSQ_ROUTER_ENUMERATOR(field, kind) field,
  XSQ_ROUTER_SCALARS(XSQ_ROUTER_ENUMERATOR)
#undef XSQ_ROUTER_ENUMERATOR
};

struct RouterConfig {
  std::vector<ShardAddress> shards;
  size_t vnodes = 64;
  BackendConfig backend;
  ProbeConfig probe;
  // Cross-shard failover attempts for idempotent owner-routed verbs
  // (on top of the in-client per-shard retries).
  int max_failover_attempts = 2;
  // Start the background prober thread. Tests and benches that want
  // deterministic health transitions set false and call ProbeNow().
  bool start_prober = true;
  // The replication plane (see cluster/replication.h). factor=1 (the
  // default) keeps the tier byte-for-byte identical to unreplicated
  // routing; factor>=2 fans RECORDs to the owner set, serves reads
  // from replicas when the primary is down, and anti-entropy-repairs
  // under-replicated keys after every mask-changing probe pass.
  ReplicationConfig replication;
  // Router-to-router gossip (see cluster/gossip.h). Disabled unless
  // peers are listed or enable is set; when on, health observations
  // flow through the gossip digest (epoch per transition) and the
  // GOSSIP verb merges peer digests, so N routers over the same shard
  // set converge to one liveness mask and identical rings.
  GossipConfig gossip;
};

class Router {
 public:
  static Result<std::unique_ptr<Router>> Create(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // --- net::Server bindings -------------------------------------------
  std::unique_ptr<net::ConnectionHandler> MakeHandler();
  // The full ServerApp: handlers, merged-metrics body, never-saturated
  // (backpressure is per shard), and the router's own net stats.
  net::ServerApp MakeServerApp();
  // Merged cluster exposition + the router's own section.
  std::string MetricsText();

  // --- topology & health ----------------------------------------------
  size_t shard_count() const { return backends_.size(); }
  Backend* backend(size_t i) { return backends_[i].get(); }
  const ShardMap& shard_map() const { return map_; }
  ShardHealth shard_health(size_t i) const { return backends_[i]->health(); }
  std::vector<bool> AliveMask() const;    // ring membership (not dead)
  std::vector<bool> ServingMask() const;  // full members
  // One synchronous probe pass (deterministic health for tests/bench).
  void ProbeNow() { prober_->ProbeNow(); }
  HealthProber* prober() { return prober_.get(); }
  Replicator* replicator() { return replicator_.get(); }
  // Null when gossip is disabled (no peers configured).
  GossipAgent* gossip() { return gossip_.get(); }
  size_t replication_factor() const { return config_.replication.factor; }

  // --- routing --------------------------------------------------------
  // The serving shard with the fewest outstanding pooled requests.
  Result<size_t> PickSessionShard() const;
  // Ring owner of `key` among live shards.
  std::optional<size_t> OwnerOf(std::string_view key) const;
  // Routes an idempotent owner-keyed request, failing over to the next
  // live owner on transport failure (never on an ERR reply). On
  // success *shard_out (optional) is the shard that answered.
  Result<net::Response> OwnerRequest(std::string_view key,
                                     std::string_view line,
                                     size_t* shard_out = nullptr);

  // --- scatter-gather -------------------------------------------------
  service::StatsSnapshot ClusterStats();
  obs::Exposition ClusterMetrics();

  // --- session registry (shared so CANCEL works cross-connection) -----
  struct SessionRecord {
    std::string query;
    size_t primary_shard = 0;
    // shard -> backend session id (as protocol text). Contains the
    // primary binding plus lazily opened RUNCACHED bindings.
    std::map<size_t, std::string> bindings;
  };
  uint64_t RegisterSession(std::string query, size_t shard,
                           std::string backend_id);
  std::optional<SessionRecord> FindSession(uint64_t router_id) const;
  void AddBinding(uint64_t router_id, size_t shard, std::string backend_id);
  void RemoveBinding(uint64_t router_id, size_t shard);
  // Re-home the session: after a RUNCACHED replay the session's current
  // document state lives on the owner shard, so subsequent CLOSE/PUSH
  // must finalize there to match single-node semantics.
  void PromotePrimary(uint64_t router_id, size_t shard);
  void RemoveSession(uint64_t router_id);
  // Cancels every backend binding of `router_id` over pooled
  // connections (works while the owning lease is blocked mid-request).
  Status CancelSession(uint64_t router_id);
  // Async variant for disconnect teardown: the bindings are copied now
  // and cancelled by the maintenance thread, so the caller (the
  // server's poll thread) never blocks on a network round trip.
  void EnqueueCancel(uint64_t router_id);

  service::ServiceStats* net_stats() { return &net_stats_; }

  // Every row of the router's own METRICS section, at this moment.
  struct OwnCounters {
#define XSQ_ROUTER_FIELD(field, kind) uint64_t field = 0;
    XSQ_ROUTER_SCALARS(XSQ_ROUTER_FIELD)
#undef XSQ_ROUTER_FIELD
  };
  OwnCounters own_counters() const;

 private:
  explicit Router(RouterConfig config);
  void CancelLoop();
  // Tries `key`'s live ring owners in walk order until `attempt(shard)`
  // returns true, and returns whether one did. An owner whose attempt
  // returns false is skipped for the rest of the walk and counted in
  // failovers_total; the walk ends after 1 + max_failover_attempts
  // owners or when no live owner is left.
  template <typename Attempt>
  bool WalkOwners(std::string_view key, Attempt attempt);
  friend class RouterHandler;

  const RouterConfig config_;
  ShardMap map_;
  obs::Registry registry_;  // router-own histograms
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<HealthProber> prober_;
  std::unique_ptr<Replicator> replicator_;
  std::unique_ptr<GossipAgent> gossip_;  // null when disabled

  service::ServiceStats net_stats_;  // the router server's conn counters

  mutable std::mutex sessions_mu_;
  std::unordered_map<uint64_t, SessionRecord> sessions_;
  std::atomic<uint64_t> next_session_id_{1};

  std::mutex cancel_mu_;
  std::condition_variable cancel_cv_;
  std::deque<std::vector<std::pair<size_t, std::string>>> cancel_queue_;
  bool cancel_stopping_ = false;
  std::thread cancel_thread_;

  void Count(RouterScalar scalar) {
    counts_[static_cast<size_t>(scalar)].fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  // Indexed by RouterScalar; only the rows the router counts itself
  // (requests, sessions, failovers, scatter failures, cancels) move.
#define XSQ_ROUTER_COUNT(field, kind) +1
  std::array<std::atomic<uint64_t>, 0 XSQ_ROUTER_SCALARS(XSQ_ROUTER_COUNT)>
      counts_{};
#undef XSQ_ROUTER_COUNT
};

}  // namespace xsq::cluster

#endif  // XSQ_CLUSTER_ROUTER_H_
