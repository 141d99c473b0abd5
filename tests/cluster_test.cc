// Tests for the cluster front tier (src/cluster/): ShardMap consistent
// hashing, Backend pooling + circuit breaking, HealthProber
// transitions, and the Router end to end against three in-process xsqd
// shards (QueryService + net::Server each), including scatter-gather
// merge equality, dead-shard key remapping, and disconnect-driven
// cross-shard cancellation.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/gossip.h"
#include "cluster/health.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common/failpoints.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "net/server.h"
#include "net/verbs.h"
#include "obs/exposition.h"
#include "service/query_service.h"
#include "service/stats.h"

namespace xsq {
namespace {

using cluster::Backend;
using cluster::BackendConfig;
using cluster::HttpGet;
using cluster::Replicator;
using cluster::Router;
using cluster::RouterConfig;
using cluster::ShardAddress;
using cluster::ShardHealth;
using cluster::ShardMap;
using net::Client;
using net::ClientConfig;
using net::LineProtocol;
using net::Server;
using net::ServerConfig;
using service::QueryService;
using service::ServiceConfig;

// Binds an ephemeral port, reads it back, releases it. The caller gets
// a port nothing listens on (until it binds it itself).
uint16_t ReserveEphemeralPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

template <typename Predicate>
bool WaitFor(Predicate predicate, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// ---------------------------------------------------------------------------
// ShardMap: consistent hashing with virtual nodes.

TEST(ShardMapTest, OwnerIsDeterministicAndUsesEveryShard) {
  ShardMap map(3, 64);
  std::vector<size_t> per_shard(3, 0);
  for (int i = 0; i < 1000; ++i) {
    std::string key = "doc-" + std::to_string(i);
    std::optional<size_t> owner = map.Owner(key);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(map.Owner(key), owner);  // stable across calls
    ++per_shard[*owner];
  }
  // Virtual nodes smooth the distribution: every shard owns a
  // non-trivial slice (the bound is loose on purpose — the point is
  // "no starved shard", not a balance SLO).
  for (size_t shard = 0; shard < 3; ++shard) {
    EXPECT_GT(per_shard[shard], 100u) << "shard " << shard;
  }
}

TEST(ShardMapTest, MaskRemapsOnlyTheDeadShardsKeys) {
  ShardMap map(3, 64);
  const std::vector<bool> all = {true, true, true};
  std::vector<bool> without_one = {true, false, true};
  size_t moved = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "doc-" + std::to_string(i);
    size_t before = *map.Owner(key, all);
    size_t after = *map.Owner(key, without_one);
    if (before == 1) {
      // A dead shard's keys remap to a survivor...
      EXPECT_NE(after, 1u);
      ++moved;
    } else {
      // ...and nobody else's keys move at all.
      EXPECT_EQ(after, before) << key;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(ShardMapTest, NoServingShardMeansNoOwner) {
  ShardMap map(2, 8);
  EXPECT_FALSE(map.Owner("doc", {false, false}).has_value());
  EXPECT_EQ(*map.Owner("doc", {false, true}), 1u);
}

// ---------------------------------------------------------------------------
// Backend: pooled requests and the circuit breaker.

TEST(BackendTest, CircuitBreakerOpensFailsFastAndRecovers) {
  uint16_t port = ReserveEphemeralPort();
  BackendConfig config;
  config.breaker_threshold = 2;
  config.breaker_cooldown_ms = 100;
  config.connect_timeout_ms = 200;
  config.request_timeout_ms = 1000;
  config.client_max_retries = 0;  // count transport attempts exactly
  Backend backend({"127.0.0.1", port}, config);

  // Nothing listens: two consecutive transport failures trip the
  // breaker, and the next request fails fast instead of burning a
  // connect timeout.
  EXPECT_FALSE(backend.Request("STATS").ok());
  EXPECT_FALSE(backend.Request("STATS").ok());
  EXPECT_TRUE(backend.circuit_open());
  auto rejected = backend.Request("STATS");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  Backend::Counters counters = backend.counters();
  EXPECT_GE(counters.failures, 2u);
  EXPECT_GE(counters.breaker_opens, 1u);
  EXPECT_GE(counters.breaker_rejects, 1u);

  // Bring a real shard up on that port: after the cooldown the
  // half-open probe goes through and closes the circuit.
  QueryService service{ServiceConfig()};
  ServerConfig server_config;
  server_config.port = port;
  auto server = Server::Create(&service, server_config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(WaitFor([&] {
    auto response = backend.Request("STATS");
    return response.ok() && response->status.ok();
  }));
  EXPECT_FALSE(backend.circuit_open());
  EXPECT_EQ(backend.outstanding(), 0u);
  (*server)->Stop();
  service.Shutdown();
}

TEST(BackendTest, ErrRepliesNeverTripTheBreaker) {
  QueryService service{ServiceConfig()};
  auto server = Server::Create(&service, ServerConfig());
  ASSERT_TRUE(server.ok());
  BackendConfig config;
  config.breaker_threshold = 2;
  Backend backend({"127.0.0.1", (*server)->port()}, config);
  // An ERR reply is a healthy transport — the shard answered.
  for (int i = 0; i < 5; ++i) {
    auto response = backend.Request("PUSH 99 <r/>");
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->status.ok());
  }
  EXPECT_FALSE(backend.circuit_open());
  EXPECT_EQ(backend.counters().failures, 0u);
  (*server)->Stop();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// The in-process cluster: N shards (QueryService + net::Server each)
// and a Router over them. The prober runs only when a test says so
// (start_prober=false + ProbeNow), so health transitions are
// deterministic.

struct ClusterHarness {
  explicit ClusterHarness(size_t n, RouterConfig base = RouterConfig(),
                          std::vector<ServiceConfig> shard_configs = {}) {
    for (size_t i = 0; i < n; ++i) {
      ServiceConfig service_config =
          i < shard_configs.size() ? shard_configs[i] : ServiceConfig();
      services.push_back(std::make_unique<QueryService>(service_config));
      auto server = Server::Create(services.back().get(), ServerConfig());
      EXPECT_TRUE(server.ok()) << server.status().ToString();
      servers.push_back(*std::move(server));
      base.shards.push_back({"127.0.0.1", servers.back()->port()});
    }
    base.start_prober = false;
    auto created = Router::Create(std::move(base));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    router = *std::move(created);
    router->ProbeNow();
  }

  ~ClusterHarness() {
    router.reset();  // pools + prober close before the shards stop
    for (size_t i = 0; i < servers.size(); ++i) {
      if (servers[i] != nullptr) servers[i]->Stop();
      services[i]->Shutdown();
    }
  }

  // SIGKILL-equivalent from the router's perspective: the shard's
  // sockets die and its port stops answering.
  void KillShard(size_t i) {
    servers[i]->Stop();
    services[i]->Shutdown();
  }

  // Restart a killed shard on its old port (fresh state, same address).
  void RestartShard(size_t i) {
    uint16_t port = servers[i]->port();
    services[i] = std::make_unique<QueryService>(ServiceConfig());
    ServerConfig config;
    config.port = port;
    auto server = Server::Create(services[i].get(), config);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    servers[i] = *std::move(server);
  }

  uint64_t SumStat(uint64_t service::StatsSnapshot::*field) const {
    uint64_t sum = 0;
    for (const auto& service : services) sum += service->stats().*field;
    return sum;
  }

  size_t ActiveSessions() const {
    size_t active = 0;
    for (const auto& service : services) active += service->active_sessions();
    return active;
  }

  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<Server>> servers;
  std::unique_ptr<Router> router;
};

TEST(RouterTest, SessionRoundTripLandsOnExactlyOneShard) {
  ClusterHarness cluster(3);
  auto handler = cluster.router->MakeHandler();
  std::string out;
  ASSERT_TRUE(handler->HandleLine("OPEN //a/text()", &out));
  EXPECT_EQ(out, "OK 1\n");
  out.clear();
  handler->HandleLine("PUSH 1 <r><a>one</a><a>two</a></r>", &out);
  handler->HandleLine("CLOSE 1", &out);
  EXPECT_EQ(out, "OK\nITEM one\nITEM two\nOK\n");

  EXPECT_EQ(cluster.SumStat(&service::StatsSnapshot::sessions_opened), 1u);
  EXPECT_EQ(cluster.router->own_counters().sessions_opened_total, 1u);
  EXPECT_FALSE(cluster.router->FindSession(1).has_value());
}

TEST(RouterTest, TranscriptMatchesSingleNodeByteForByte) {
  // Zero result diffs: the same command sequence through one xsqd
  // (LineProtocol over a local service) and through the 3-shard router
  // must produce identical bytes — session ids, items, RECORD summary,
  // everything.
  const std::string commands[] = {
      "OPEN //a/text()",
      "PUSH 1 <r><a>one</a><a>two</a></r>",
      "CLOSE 1",
      "RECORD dblp <r><a>x</a><a>y</a></r>",
      "OPEN //a/text()",
      "RUNCACHED 2 dblp",
      "CLOSE 2",
      "EVICT dblp",
      "RUNCACHED 99 dblp",  // unknown session: deterministic ERR
  };

  std::string expected;
  {
    QueryService local_service{ServiceConfig()};
    LineProtocol local(&local_service);
    for (const std::string& command : commands) {
      local.HandleLine(command, &expected);
    }
    local.ReleaseAll();
    local_service.Shutdown();
  }

  ClusterHarness cluster(3);
  auto handler = cluster.router->MakeHandler();
  std::string actual;
  for (const std::string& command : commands) {
    handler->HandleLine(command, &actual);
  }
  EXPECT_EQ(actual, expected);
}

TEST(RouterTest, RecordRunCachedAndEvictFollowTheRingOwner) {
  ClusterHarness cluster(3);
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("RECORD dblp <r><a>x</a><a>y</a></r>", &out);
  EXPECT_EQ(out.rfind("OK ", 0), 0u) << out;

  size_t owner = *cluster.router->OwnerOf("dblp");
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.services[i]->stats().doc_cache_documents,
              i == owner ? 1u : 0u)
        << "shard " << i;
  }

  // RUNCACHED binds the session on the owner shard and replays there.
  out.clear();
  handler->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 1\n");
  out.clear();
  handler->HandleLine("RUNCACHED 1 dblp", &out);
  EXPECT_EQ(out, "ITEM x\nITEM y\nOK\n");
  EXPECT_EQ(cluster.services[owner]->stats().tape_replays, 1u);

  // EVICT routes to the same owner; a later RUNCACHED relays the
  // shard's ERR (the client's cue to re-RECORD).
  out.clear();
  handler->HandleLine("EVICT dblp", &out);
  EXPECT_EQ(out, "OK\n");
  EXPECT_EQ(cluster.services[owner]->stats().doc_cache_explicit_evictions,
            1u);
  out.clear();
  handler->HandleLine("RUNCACHED 1 dblp", &out);
  EXPECT_EQ(out.rfind("ERR ", 0), 0u) << out;
  out.clear();
  handler->HandleLine("CLOSE 1", &out);
}

TEST(RouterTest, DeadShardFailsOverAndKeysRemapWithinOneProbePass) {
  RouterConfig base;
  base.probe.fail_threshold = 1;  // one missed probe marks a shard dead
  base.backend.connect_timeout_ms = 300;
  base.backend.client_max_retries = 0;
  ClusterHarness cluster(3, base);
  auto handler = cluster.router->MakeHandler();

  std::string out;
  handler->HandleLine("RECORD remap-me <r><a>z</a></r>", &out);
  EXPECT_EQ(out.rfind("OK ", 0), 0u) << out;
  size_t victim = *cluster.router->OwnerOf("remap-me");

  cluster.KillShard(victim);

  // Before any probe notices, the idempotent RECORD already fails over:
  // the transport failure excludes the dead owner locally and the ring
  // walks to the next live shard.
  out.clear();
  handler->HandleLine("RECORD remap-me <r><a>z</a></r>", &out);
  EXPECT_EQ(out.rfind("OK ", 0), 0u) << out;
  EXPECT_GE(cluster.router->own_counters().failovers_total, 1u);

  // One probe pass marks the shard dead and remaps its keys — and only
  // its keys (ShardMapTest pins the only-its-keys half).
  cluster.router->ProbeNow();
  EXPECT_EQ(cluster.router->shard_health(victim), ShardHealth::kDead);
  size_t new_owner = *cluster.router->OwnerOf("remap-me");
  EXPECT_NE(new_owner, victim);
  EXPECT_EQ(cluster.services[new_owner]->stats().doc_cache_documents, 1u);

  // The ring heals: one good probe resurrects a restarted shard and
  // the key moves home.
  cluster.RestartShard(victim);
  cluster.router->ProbeNow();
  EXPECT_EQ(cluster.router->shard_health(victim), ShardHealth::kServing);
  EXPECT_EQ(*cluster.router->OwnerOf("remap-me"), victim);
}

TEST(RouterTest, ProberDistinguishesSheddingFromDead) {
  ServiceConfig tiny;
  tiny.max_sessions = 1;
  ClusterHarness cluster(2, RouterConfig(), {tiny});

  // Saturate shard 0: its /healthz answers 503 shedding (served even
  // while protocol connections would be shed — that is the net-layer
  // fix this tier depends on).
  ClientConfig config;
  config.port = cluster.servers[0]->port();
  Client occupant(config);
  auto open = occupant.Request("OPEN //a");
  ASSERT_TRUE(open.ok() && open->status.ok());

  cluster.router->ProbeNow();
  EXPECT_EQ(cluster.router->shard_health(0), ShardHealth::kShedding);
  EXPECT_EQ(cluster.router->shard_health(1), ShardHealth::kServing);
  // Shedding: off the session-placement mask, still on the ring.
  EXPECT_EQ(*cluster.router->PickSessionShard(), 1u);
  std::vector<bool> alive = cluster.router->AliveMask();
  EXPECT_TRUE(alive[0] && alive[1]);

  // Capacity freed: the next probe pass restores full membership.
  occupant.Close();
  ASSERT_TRUE(WaitFor([&] { return cluster.ActiveSessions() == 0; }));
  cluster.router->ProbeNow();
  EXPECT_EQ(cluster.router->shard_health(0), ShardHealth::kServing);
}

TEST(RouterTest, RiseThresholdKeepsTheRingStableUnderFlap) {
  // Anti-flap hysteresis: a flapping shard (dead, briefly back, dead
  // again) must not rejoin the ring on its first good probe and yank
  // keys back and forth. With rise_threshold=3 the ring changes once
  // on death and once on a *sustained* recovery — two remaps total,
  // not one per flap.
  RouterConfig base;
  base.probe.fail_threshold = 1;
  base.probe.rise_threshold = 3;
  base.backend.connect_timeout_ms = 300;
  base.backend.client_max_retries = 0;
  ClusterHarness cluster(3, base);
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("RECORD flappy <r><a>f</a></r>", &out);
  ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  size_t victim = *cluster.router->OwnerOf("flappy");

  cluster.KillShard(victim);
  cluster.router->ProbeNow();
  ASSERT_EQ(cluster.router->shard_health(victim), ShardHealth::kDead);
  size_t survivor = *cluster.router->OwnerOf("flappy");
  ASSERT_NE(survivor, victim);

  // The shard comes back, but one good probe is below the threshold:
  // still dead, and the key stays put on the survivor.
  cluster.RestartShard(victim);
  cluster.router->ProbeNow();
  EXPECT_EQ(cluster.router->shard_health(victim), ShardHealth::kDead);
  EXPECT_EQ(*cluster.router->OwnerOf("flappy"), survivor);

  // It flaps again: the success streak resets, so the next good probe
  // after the outage is streak 1, not 3 — the ring never moved.
  cluster.KillShard(victim);
  cluster.router->ProbeNow();
  EXPECT_EQ(cluster.router->shard_health(victim), ShardHealth::kDead);
  cluster.RestartShard(victim);
  cluster.router->ProbeNow();  // streak 1
  EXPECT_EQ(cluster.router->shard_health(victim), ShardHealth::kDead);
  EXPECT_EQ(*cluster.router->OwnerOf("flappy"), survivor);

  // Sustained recovery: the threshold-th consecutive good probe
  // resurrects the shard and the key finally moves home.
  cluster.router->ProbeNow();  // streak 2
  EXPECT_EQ(cluster.router->shard_health(victim), ShardHealth::kDead);
  cluster.router->ProbeNow();  // streak 3: resurrect
  EXPECT_EQ(cluster.router->shard_health(victim), ShardHealth::kServing);
  EXPECT_EQ(*cluster.router->OwnerOf("flappy"), victim);
}

TEST(RouterTest, ScatterGatherMergesStatsAndMetricsExactly) {
  ClusterHarness cluster(3);
  // Every shard records a queue high-water mark, so a sum over shards
  // and the max disagree.
  for (const auto& service : cluster.services) {
    Result<service::SessionId> id = service->OpenSession("//a/text()");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service->Push(*id, "<r><a>hw</a></r>").ok());
    ASSERT_TRUE(service->Close(*id).ok());
    service->Release(*id);
  }
  auto handler = cluster.router->MakeHandler();
  std::string out;
  // Non-trivial, spread-out work: a session, a recorded tape, a replay.
  handler->HandleLine("OPEN //a/text()", &out);
  handler->HandleLine("PUSH 1 <r><a>one</a></r>", &out);
  handler->HandleLine("CLOSE 1", &out);
  handler->HandleLine("RECORD doc <r><a>x</a></r>", &out);
  handler->HandleLine("OPEN //a/text()", &out);
  handler->HandleLine("RUNCACHED 2 doc", &out);
  handler->HandleLine("CLOSE 2", &out);

  // Expected sums read straight from the in-process services (exact;
  // the STATS/METRICS scatter below moves none of these counters).
  uint64_t sessions = cluster.SumStat(&service::StatsSnapshot::sessions_opened);
  uint64_t items = cluster.SumStat(&service::StatsSnapshot::items_emitted);
  uint64_t replays = cluster.SumStat(&service::StatsSnapshot::tape_replays);
  uint64_t high_water = 0;
  for (const auto& service : cluster.services) {
    high_water = std::max(high_water, service->stats().queue_high_water);
  }
  ASSERT_GE(sessions, 2u);
  ASSERT_GE(replays, 1u);

  service::StatsSnapshot merged = cluster.router->ClusterStats();
  EXPECT_EQ(merged.sessions_opened, sessions);
  EXPECT_EQ(merged.items_emitted, items);
  EXPECT_EQ(merged.tape_replays, replays);
  EXPECT_EQ(merged.queue_high_water, high_water);

  obs::Exposition metrics = cluster.router->ClusterMetrics();
  const obs::ExpositionSeries* opened = metrics.Find("xsq_sessions_opened");
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->value, sessions);
  const obs::ExpositionSeries* replay_hist =
      metrics.Find("xsq_tape_replay_us");
  ASSERT_NE(replay_hist, nullptr);
  ASSERT_TRUE(replay_hist->is_histogram);
  // Merged histogram count == sum of the per-shard counts (each shard
  // records one sample per tape replay).
  EXPECT_EQ(replay_hist->hist.count, replays);
  // METRICS folds each scalar by the rule STATS uses: the high-water
  // mark and the build flag max instead of summing.
  ASSERT_GE(high_water, 1u);
  const obs::ExpositionSeries* metric_high_water =
      metrics.Find("xsq_queue_high_water");
  ASSERT_NE(metric_high_water, nullptr);
  EXPECT_EQ(metric_high_water->value, merged.queue_high_water);
  Result<obs::Exposition> one_shard =
      obs::Exposition::Parse(cluster.services[0]->MetricsText());
  ASSERT_TRUE(one_shard.ok());
  const obs::ExpositionSeries* obs_enabled = metrics.Find("xsq_obs_enabled");
  ASSERT_NE(obs_enabled, nullptr);
  EXPECT_EQ(obs_enabled->value, one_shard->Find("xsq_obs_enabled")->value);
  EXPECT_LE(obs_enabled->value, 1u);

  // No scatter failures against an all-healthy roster, and the router's
  // /metrics body carries the merged families plus its own section.
  EXPECT_EQ(cluster.router->own_counters().scatter_failures_total, 0u);
  std::string body = cluster.router->MetricsText();
  EXPECT_NE(body.find("xsq_sessions_opened"), std::string::npos);
  EXPECT_NE(body.find("xsq_router_requests_total"), std::string::npos);
  EXPECT_NE(body.find("xsq_router_shards_serving 3"), std::string::npos);
  EXPECT_NE(body.find("xsq_router_backend_request_us"), std::string::npos);
}

TEST(RouterTest, StatsVerbReportsTheMergedClusterView) {
  ClusterHarness cluster(3);
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("OPEN //a/text()", &out);
  handler->HandleLine("PUSH 1 <r><a>v</a></r>", &out);
  handler->HandleLine("CLOSE 1", &out);
  uint64_t sessions = cluster.SumStat(&service::StatsSnapshot::sessions_opened);

  out.clear();
  handler->HandleLine("STATS", &out);
  EXPECT_NE(out.find("STAT sessions_opened " + std::to_string(sessions)),
            std::string::npos)
      << out;
  EXPECT_NE(out.rfind("OK\n"), std::string::npos);
}

TEST(RouterTest, ClusterMetricsFallsBackToTheProbersCachedScrape) {
  ClusterHarness cluster(2);  // ProbeNow in the ctor cached both scrapes
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("OPEN //a/text()", &out);
  handler->HandleLine("CLOSE 1", &out);

  cluster.KillShard(0);
  // The dead shard cannot be scraped live, but the prober's cached
  // exposition keeps it present in the merged view (stale beats
  // absent mid-incident), so nothing is counted as a scatter failure.
  obs::Exposition merged = cluster.router->ClusterMetrics();
  EXPECT_NE(merged.Find("xsq_sessions_opened"), nullptr);
  EXPECT_EQ(cluster.router->own_counters().scatter_failures_total, 0u);
}

TEST(RouterTest, DisconnectEnqueuesCancelsAndLeaseClosureReleasesSessions) {
  ClusterHarness cluster(3);
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 1\n");
  ASSERT_TRUE(WaitFor([&] { return cluster.ActiveSessions() == 1; }));

  // The server's disconnect sequence: CancelAll (poll thread — must
  // not block on the network, so it only enqueues), ReleaseAll, then
  // the handler is destroyed and its leases close — each shard sees a
  // disconnect and releases everything opened on it.
  EXPECT_EQ(handler->CancelAll(), 1u);
  EXPECT_GE(cluster.router->own_counters().cancels_enqueued_total, 1u);
  handler->ReleaseAll();
  handler.reset();
  EXPECT_TRUE(WaitFor([&] { return cluster.ActiveSessions() == 0; }));
  EXPECT_FALSE(cluster.router->FindSession(1).has_value());
}

TEST(RouterTest, CancelWorksCrossConnectionAndPubSubIsNotRouted) {
  ClusterHarness cluster(3);
  auto first = cluster.router->MakeHandler();
  auto second = cluster.router->MakeHandler();
  std::string out;
  first->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 1\n");

  // CANCEL is cross-connection by design (routed over pooled
  // connections, like single-node xsqd).
  out.clear();
  second->HandleLine("CANCEL 1", &out);
  EXPECT_EQ(out, "OK\n");

  // Session verbs are connection-scoped: the second connection cannot
  // drive the first's session.
  out.clear();
  second->HandleLine("PUSH 1 <r><a>x</a></r>", &out);
  EXPECT_EQ(out.rfind("ERR InvalidArgument: unknown session id", 0), 0u)
      << out;

  // Pub/sub is per-shard state and not routed.
  out.clear();
  second->HandleLine("SUBSCRIBE //a/text()", &out);
  EXPECT_EQ(out,
            "ERR NotSupported: pub/sub is per-shard state and is not routed; "
            "connect to a shard directly\n");

  out.clear();
  first->HandleLine("CLOSE 1", &out);
}

TEST(RouterTest, MetricsCarryTheRoutersOwnNetCounters) {
  ClusterHarness cluster(1);
  service::ServiceStats* net = cluster.router->net_stats();
  net->Add(service::Stat::connections_shed, 4);
  net->Add(service::Stat::disconnect_cancels, 3);
  net->Add(service::Stat::net_idle_closed, 2);
  net->Add(service::Stat::net_overrun_closed, 1);
  std::string body = cluster.router->MetricsText();
  for (const char* row :
       {"# TYPE xsq_router_connections_shed counter\n"
        "xsq_router_connections_shed 4\n",
        "# TYPE xsq_router_disconnect_cancels counter\n"
        "xsq_router_disconnect_cancels 3\n",
        "# TYPE xsq_router_net_idle_closed counter\n"
        "xsq_router_net_idle_closed 2\n",
        "# TYPE xsq_router_net_overrun_closed counter\n"
        "xsq_router_net_overrun_closed 1\n"}) {
    EXPECT_NE(body.find(row), std::string::npos) << row;
  }
}

TEST(VerbTableTest, BothDispatchersKnowEveryVerbInTheTable) {
  ClusterHarness cluster(1);
  LineProtocol shard(cluster.services[0].get());
  auto router = cluster.router->MakeHandler();
  for (const net::VerbSpec& verb : net::kVerbs) {
    std::string line(verb.name);
    std::string from_shard;
    std::string from_router;
    shard.HandleLine(line, &from_shard);
    router->HandleLine(line, &from_router);
    EXPECT_EQ(from_shard.find("unknown command"), std::string::npos)
        << from_shard;
    EXPECT_EQ(from_router.find("unknown command"), std::string::npos)
        << from_router;
    const std::string state(verb.state);
    if (verb.host == net::VerbHost::kShardOnly) {
      EXPECT_EQ(from_router, "ERR NotSupported: " + state +
                                 " is per-shard state and is not routed; "
                                 "connect to a shard directly\n");
    }
    if (verb.host == net::VerbHost::kRouterOnly) {
      EXPECT_EQ(from_shard, "ERR NotSupported: " + state +
                                " is served by routers, not shards\n");
    }
  }
  // A verb missing from the table is unknown to both, byte-identically.
  std::string from_shard;
  std::string from_router;
  shard.HandleLine("FROB 1", &from_shard);
  router->HandleLine("FROB 1", &from_router);
  EXPECT_EQ(from_shard, "ERR InvalidArgument: unknown command 'FROB'\n");
  EXPECT_EQ(from_router, from_shard);
}

TEST(RouterTest, ServesTheLineProtocolAndHttpOverTcp) {
  // The full stack: router behind its own net::Server, spoken to with
  // the ordinary client and scraped over HTTP like any xsqd.
  ClusterHarness cluster(3);
  auto server = Server::Create(cluster.router->MakeServerApp(),
                               ServerConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ClientConfig config;
  config.port = (*server)->port();
  Client client(config);
  auto open = client.Request("OPEN //a/text()");
  ASSERT_TRUE(open.ok() && open->status.ok());
  client.Request("PUSH " + open->ok_payload + " <r><a>via-router</a></r>");
  auto close = client.Request("CLOSE " + open->ok_payload);
  ASSERT_TRUE(close.ok() && close->status.ok());
  ASSERT_EQ(close->lines.size(), 1u);
  EXPECT_EQ(close->lines[0], "ITEM via-router");

  auto healthz = HttpGet({"127.0.0.1", (*server)->port()}, "/healthz", 2000);
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz->code, 200);
  auto metrics = HttpGet({"127.0.0.1", (*server)->port()}, "/metrics", 2000);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->code, 200);
  EXPECT_NE(metrics->body.find("xsq_sessions_opened"), std::string::npos);
  EXPECT_NE(metrics->body.find("xsq_router_sessions_opened_total 1"),
            std::string::npos);

  (*server)->Stop();
}

// ---------------------------------------------------------------------------
// Replication: owner sets, RECORD fanout, replica failover, read
// repair, anti-entropy, and the REPLPULL shard-to-shard transfer.

TEST(ShardMapTest, OwnersWalkOrderIsTheFailoverOrder) {
  ShardMap map(4, 64);
  const std::vector<bool> all(4, true);
  for (int i = 0; i < 200; ++i) {
    std::string key = "doc-" + std::to_string(i);
    std::vector<size_t> owners = map.Owners(key, 2, all);
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_EQ(owners[0], *map.Owner(key, all));
    EXPECT_NE(owners[0], owners[1]);
    // The property replication leans on: kill the primary and the new
    // Owner() is exactly the replica that received the fanout.
    std::vector<bool> mask = all;
    mask[owners[0]] = false;
    EXPECT_EQ(*map.Owner(key, mask), owners[1]) << key;
  }
}

TEST(ShardMapTest, OwnersClampsToTheServingShards) {
  ShardMap map(3, 32);
  EXPECT_EQ(map.Owners("doc", 5, {true, true, true}).size(), 3u);
  EXPECT_EQ(map.Owners("doc", 2, {false, true, false}),
            std::vector<size_t>{1});
  EXPECT_TRUE(map.Owners("doc", 2, {false, false, false}).empty());
  EXPECT_TRUE(map.Owners("doc", 0, {true, true, true}).empty());
}

RouterConfig ReplicatedConfig(size_t factor = 2) {
  RouterConfig base;
  base.replication.factor = factor;
  base.probe.fail_threshold = 1;
  base.backend.connect_timeout_ms = 300;
  base.backend.client_max_retries = 0;
  return base;
}

TEST(ReplicationTest, RecordFansTapesToExactlyTheOwnerSet) {
  ClusterHarness cluster(3, ReplicatedConfig());
  // The harness's first ProbeNow always reports a mask change and
  // requests the initial sweep; drain it so the exact-count asserts
  // below see only the RECORD fanouts.
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  auto handler = cluster.router->MakeHandler();
  const std::vector<bool> all(3, true);
  std::string out;
  for (int i = 0; i < 8; ++i) {
    out.clear();
    handler->HandleLine(
        "RECORD doc-" + std::to_string(i) + " <r><a>v</a></r>", &out);
    ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  }
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  for (int i = 0; i < 8; ++i) {
    std::string key = "doc-" + std::to_string(i);
    std::vector<size_t> owners =
        cluster.router->shard_map().Owners(key, 2, all);
    ASSERT_EQ(owners.size(), 2u);
    for (size_t shard = 0; shard < 3; ++shard) {
      bool is_owner = shard == owners[0] || shard == owners[1];
      EXPECT_EQ(cluster.services[shard]->ServeTape(key).ok(), is_owner)
          << key << " on shard " << shard;
    }
  }
  Replicator::Counters repl = cluster.router->replicator()->counters();
  EXPECT_EQ(repl.fanouts, 8u);
  EXPECT_EQ(repl.repaired, 8u);
  EXPECT_EQ(repl.failed, 0u);
  EXPECT_EQ(cluster.router->replicator()->known_keys(), 8u);
}

TEST(ReplicationTest, DeadPrimaryServesByteIdenticalReplayFromReplica) {
  ClusterHarness cluster(3, ReplicatedConfig());
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("RECORD stable <r><a>x</a><a>y</a></r>", &out);
  ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  std::vector<size_t> owners =
      cluster.router->shard_map().Owners("stable", 2, {true, true, true});
  ASSERT_EQ(owners.size(), 2u);

  // Baseline replay through the healthy primary.
  out.clear();
  handler->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 1\n");
  out.clear();
  handler->HandleLine("RUNCACHED 1 stable", &out);
  const std::string replay = out;
  EXPECT_EQ(replay, "ITEM x\nITEM y\nOK\n");
  out.clear();
  handler->HandleLine("CLOSE 1", &out);

  cluster.KillShard(owners[0]);
  cluster.router->ProbeNow();
  ASSERT_EQ(cluster.router->shard_health(owners[0]), ShardHealth::kDead);

  // The key's new ring owner is the replica, which already holds the
  // tape: the replay is byte-identical with zero client re-records.
  out.clear();
  handler->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 2\n");
  out.clear();
  handler->HandleLine("RUNCACHED 2 stable", &out);
  EXPECT_EQ(out, replay);
  EXPECT_GE(cluster.services[owners[1]]->stats().tape_replays, 1u);
  out.clear();
  handler->HandleLine("CLOSE 2", &out);
}

TEST(ReplicationTest, MissOnTheOwnerFailsOverToTheReplicaAndReadRepairs) {
  ClusterHarness cluster(3, ReplicatedConfig());
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("RECORD repairme <r><a>q</a></r>", &out);
  ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  std::vector<size_t> owners =
      cluster.router->shard_map().Owners("repairme", 2, {true, true, true});
  ASSERT_EQ(owners.size(), 2u);

  // The primary silently loses the tape (evicted behind the router's
  // back); the shard itself stays healthy.
  ASSERT_TRUE(cluster.services[owners[0]]->EvictDocument("repairme").ok());

  // RUNCACHED does not relay the miss: the replica owner serves it.
  out.clear();
  handler->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 1\n");
  out.clear();
  handler->HandleLine("RUNCACHED 1 repairme", &out);
  EXPECT_EQ(out, "ITEM q\nOK\n");
  EXPECT_GE(cluster.router->own_counters().failovers_total, 1u);

  // ...and read repair pushed the replica's copy back to the primary.
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  EXPECT_TRUE(cluster.services[owners[0]]->ServeTape("repairme").ok());
  EXPECT_GE(cluster.services[owners[0]]->stats().repl_ingests, 1u);
  out.clear();
  handler->HandleLine("CLOSE 1", &out);
}

TEST(ReplicationTest, MissOnEveryOwnerRelaysNotFound) {
  ClusterHarness cluster(3, ReplicatedConfig());
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 1\n");
  const uint64_t failovers = cluster.router->own_counters().failovers_total;
  // Each owner answers NotFound, so the router walks past both before
  // it relays the first miss verbatim.
  out.clear();
  handler->HandleLine("RUNCACHED 1 ghost", &out);
  EXPECT_EQ(out, "ERR NotFound: document not recorded: ghost\n");
  EXPECT_GE(cluster.router->own_counters().failovers_total - failovers, 2u);
  out.clear();
  handler->HandleLine("CLOSE 1", &out);
}

TEST(ReplicationTest, AntiEntropySweepRestoresTheFactorAfterARestart) {
  ClusterHarness cluster(3, ReplicatedConfig());
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("RECORD sweepme <r><a>s</a></r>", &out);
  ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  std::vector<size_t> owners =
      cluster.router->shard_map().Owners("sweepme", 2, {true, true, true});
  ASSERT_EQ(owners.size(), 2u);

  // The replica dies and comes back empty: under-replicated. (The
  // emptiness check sits BEFORE the probe pass that rejoins the shard
  // to the ring — that pass changes the mask and so requests an async
  // sweep, which may repair the copy before this thread looks again.)
  cluster.KillShard(owners[1]);
  cluster.router->ProbeNow();
  cluster.RestartShard(owners[1]);
  ASSERT_FALSE(cluster.services[owners[1]]->ServeTape("sweepme").ok());
  cluster.router->ProbeNow();
  ASSERT_EQ(cluster.router->shard_health(owners[1]), ShardHealth::kServing);

  // One sweep pass detects the missing copy and REPLPULLs it from the
  // surviving holder.
  cluster.router->replicator()->SweepNow();
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  EXPECT_TRUE(cluster.services[owners[1]]->ServeTape("sweepme").ok());
  Replicator::Counters repl = cluster.router->replicator()->counters();
  EXPECT_GE(repl.sweeps, 1u);
  EXPECT_GE(repl.repaired, 2u);  // the fanout + the sweep repair
}

TEST(ReplicationTest, FanoutQueueSurvivesThePrimaryCrashWindow) {
  // The partial-replication window: the client holds an ACK but the
  // replica fan-out has not run yet, and the primary dies. The queue
  // buffered the full RECORD line, so releasing it delivers the bytes
  // to the surviving replica — zero client re-records.
  RouterConfig base = ReplicatedConfig();
  base.replication.start_workers = false;  // freeze the fanout queue
  ClusterHarness cluster(3, base);
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("RECORD windowed <r><a>w1</a><a>w2</a></r>", &out);
  ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  std::vector<size_t> owners =
      cluster.router->shard_map().Owners("windowed", 2, {true, true, true});
  ASSERT_EQ(owners.size(), 2u);
  ASSERT_FALSE(cluster.services[owners[1]]->ServeTape("windowed").ok());
  EXPECT_EQ(cluster.router->replicator()->counters().pending, 1u);

  cluster.KillShard(owners[0]);  // crash inside the window
  cluster.router->ProbeNow();

  cluster.router->replicator()->Start();  // the queue thaws
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  EXPECT_TRUE(cluster.services[owners[1]]->ServeTape("windowed").ok());

  // Reads succeed from the replica without any client re-record...
  out.clear();
  handler->HandleLine("OPEN //a/text()", &out);
  ASSERT_EQ(out, "OK 1\n");
  out.clear();
  handler->HandleLine("RUNCACHED 1 windowed", &out);
  EXPECT_EQ(out, "ITEM w1\nITEM w2\nOK\n");
  out.clear();
  handler->HandleLine("CLOSE 1", &out);

  // ...and one sweep restores the full factor on the surviving pair.
  cluster.router->replicator()->SweepNow();
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  size_t third = 3 - owners[0] - owners[1];
  EXPECT_TRUE(cluster.services[third]->ServeTape("windowed").ok());
}

TEST(ReplicationTest, EvictFansToEveryOwnerAndReplStatusReports) {
  ClusterHarness cluster(3, ReplicatedConfig());
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("RECORD gone <r><a>g</a></r>", &out);
  ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  std::vector<size_t> owners =
      cluster.router->shard_map().Owners("gone", 2, {true, true, true});

  out.clear();
  handler->HandleLine("EVICT gone", &out);
  EXPECT_EQ(out, "OK\n");
  for (size_t owner : owners) {
    EXPECT_FALSE(cluster.services[owner]->ServeTape("gone").ok())
        << "shard " << owner;
  }
  EXPECT_EQ(cluster.router->replicator()->known_keys(), 0u);

  out.clear();
  handler->HandleLine("REPLSTATUS", &out);
  EXPECT_EQ(out.rfind("REPL factor=2 keys=0", 0), 0u) << out;
  EXPECT_NE(out.find("\nOK\n"), std::string::npos) << out;

  // The router's own metrics section carries the replication plane.
  std::string body = cluster.router->MetricsText();
  EXPECT_NE(body.find("xsq_router_repl_pending"), std::string::npos);
  EXPECT_NE(body.find("xsq_router_repl_repaired_total"), std::string::npos);
  EXPECT_NE(body.find("xsq_router_repl_failed_total"), std::string::npos);
}

TEST(ReplicationTest, ReplPullServesPullsAndSurvivesCorruptPayloads) {
  // The shard-side transfer verb, driven directly over TCP.
  QueryService source_service{ServiceConfig()};
  auto source = Server::Create(&source_service, ServerConfig());
  ASSERT_TRUE(source.ok());
  QueryService sink_service{ServiceConfig()};
  auto sink = Server::Create(&sink_service, ServerConfig());
  ASSERT_TRUE(sink.ok());

  ClientConfig source_config;
  source_config.port = (*source)->port();
  Client source_client(source_config);
  auto recorded = source_client.Request("RECORD xfer <r><a>t</a></r>");
  ASSERT_TRUE(recorded.ok() && recorded->status.ok());

  // Serve mode streams one TAPE line; a miss is the canonical ERR.
  auto served = source_client.Request("REPLPULL xfer");
  ASSERT_TRUE(served.ok() && served->status.ok());
  ASSERT_EQ(served->lines.size(), 1u);
  EXPECT_EQ(served->lines[0].rfind("TAPE ", 0), 0u);
  auto missing = source_client.Request("REPLPULL nosuch");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status.code(), StatusCode::kNotFound);

  // Pull mode: the sink fetches from the source and can replay it.
  ClientConfig sink_config;
  sink_config.port = (*sink)->port();
  Client sink_client(sink_config);
  auto pulled = sink_client.Request(
      "REPLPULL xfer 127.0.0.1:" + std::to_string((*source)->port()));
  ASSERT_TRUE(pulled.ok() && pulled->status.ok()) << pulled->status.ToString();
  auto open = sink_client.Request("OPEN //a/text()");
  ASSERT_TRUE(open.ok() && open->status.ok());
  auto replay = sink_client.Request("RUNCACHED " + open->ok_payload + " xfer");
  ASSERT_TRUE(replay.ok() && replay->status.ok());
  ASSERT_EQ(replay->lines.size(), 1u);
  EXPECT_EQ(replay->lines[0], "ITEM t");
  sink_client.Request("CLOSE " + open->ok_payload);

  // A corrupted transfer is rejected by the CRC on ingest and counted.
  std::string tape_bytes = LineProtocol::Unescape(
      std::string_view(served->lines[0]).substr(5));
  tape_bytes[tape_bytes.size() / 2] ^= 0x40;
  auto corrupt = sink_service.IngestTape("xfer", std::move(tape_bytes));
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataCorruption);

  auto status = sink_client.Request("REPLSTATUS");
  ASSERT_TRUE(status.ok() && status->status.ok());
  ASSERT_EQ(status->lines.size(), 1u);
  EXPECT_EQ(status->lines[0].rfind("DOC xfer ", 0), 0u);
  EXPECT_NE(status->ok_payload.find("ingests=1"), std::string::npos);
  EXPECT_NE(status->ok_payload.find("corrupt=1"), std::string::npos);

  (*source)->Stop();
  source_service.Shutdown();
  (*sink)->Stop();
  sink_service.Shutdown();
}

TEST(ReplicationTest, ReplPullEnforcesTheTapeByteCapOnBothSides) {
  // --max-tape-bytes bounds the shard-to-shard transfer: an oversized
  // tape is refused with a clean ERR LimitExceeded on the serve side
  // AND on the pull side, and the puller never half-installs it.
  ServiceConfig capped;
  capped.max_tape_bytes = 64;  // far below any real tape image
  QueryService source_service{ServiceConfig()};
  auto source = Server::Create(&source_service, ServerConfig());
  ASSERT_TRUE(source.ok());
  QueryService capped_service{capped};
  auto capped_server = Server::Create(&capped_service, ServerConfig());
  ASSERT_TRUE(capped_server.ok());

  ClientConfig source_config;
  source_config.port = (*source)->port();
  Client source_client(source_config);
  auto recorded =
      source_client.Request("RECORD big <r><a>payload-payload</a></r>");
  ASSERT_TRUE(recorded.ok() && recorded->status.ok());

  // Serve side: the capped daemon refuses to *send* an oversized tape.
  ClientConfig capped_config;
  capped_config.port = (*capped_server)->port();
  Client capped_client(capped_config);
  auto r = capped_client.Request("RECORD big <r><a>payload-payload</a></r>");
  ASSERT_TRUE(r.ok() && r->status.ok());
  auto served = capped_client.Request("REPLPULL big");
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->status.code(), StatusCode::kLimitExceeded)
      << served->status.ToString();

  // Pull side: the capped daemon refuses to *install* one, and stays
  // clean — no half-installed tape, no ingest counted.
  ASSERT_TRUE(capped_service.EvictDocument("big").ok());
  auto pulled = capped_client.Request(
      "REPLPULL big 127.0.0.1:" + std::to_string((*source)->port()));
  ASSERT_TRUE(pulled.ok());
  EXPECT_EQ(pulled->status.code(), StatusCode::kLimitExceeded)
      << pulled->status.ToString();
  EXPECT_FALSE(capped_service.ServeTape("big").ok());
  EXPECT_EQ(capped_service.stats().repl_ingests, 0u);

  // An uncapped sink pulling the same tape goes through: the cap, not
  // the transfer, is what failed above.
  QueryService sink_service{ServiceConfig()};
  auto sink = Server::Create(&sink_service, ServerConfig());
  ASSERT_TRUE(sink.ok());
  ClientConfig sink_config;
  sink_config.port = (*sink)->port();
  Client sink_client(sink_config);
  auto fine = sink_client.Request(
      "REPLPULL big 127.0.0.1:" + std::to_string((*source)->port()));
  ASSERT_TRUE(fine.ok());
  EXPECT_TRUE(fine->status.ok()) << fine->status.ToString();
  EXPECT_TRUE(sink_service.ServeTape("big").ok());

  (*source)->Stop();
  source_service.Shutdown();
  (*capped_server)->Stop();
  capped_service.Shutdown();
  (*sink)->Stop();
  sink_service.Shutdown();
}

TEST(ReplicationTest, ReplPullDeadlineBoundsAStalledPeer) {
  // A peer that accepts the connection and then never answers must not
  // wedge the pulling shard's worker: --replpull-deadline-ms bounds the
  // fetch and surfaces a clean error.
  int stall_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(stall_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(stall_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(stall_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(stall_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  uint16_t stall_port = ntohs(addr.sin_port);

  ServiceConfig bounded;
  bounded.replpull_deadline_ms = 300;
  QueryService service{bounded};
  auto server = Server::Create(&service, ServerConfig());
  ASSERT_TRUE(server.ok());
  ClientConfig config;
  config.port = (*server)->port();
  config.request_timeout_ms = 10000;  // the shard's deadline, not ours
  Client client(config);

  auto start = std::chrono::steady_clock::now();
  auto pulled = client.Request("REPLPULL stuck 127.0.0.1:" +
                               std::to_string(stall_port));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_TRUE(pulled.ok());
  EXPECT_FALSE(pulled->status.ok());
  // Bounded by the 300ms deadline (plus slack), nowhere near the 5s
  // default or an unbounded hang.
  EXPECT_LT(elapsed, 2500) << "REPLPULL did not honor the deadline";

  ::close(stall_fd);
  (*server)->Stop();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// The GOSSIP verb on the router's protocol surface. The merge algebra
// and agent semantics live in gossip_test; here we pin the wire-level
// behavior: routing state adopted from a peer's digest changes what
// the router serves, and the metrics section reports the gossip plane.

TEST(RouterTest, GossipVerbMergesARemoteDigestIntoTheRing) {
  RouterConfig base;
  base.gossip.enable = true;
  base.gossip.start = false;  // no background thread: verb-driven only
  ClusterHarness cluster(3, base);
  auto handler = cluster.router->MakeHandler();
  ASSERT_NE(cluster.router->gossip(), nullptr);

  // A peer router observed shard 0 dead at a fresh epoch; its digest
  // arriving over the verb must flip our ring within this one round.
  cluster::GossipDigest remote = cluster.router->gossip()->Snapshot();
  remote.shards[0].epoch += 1;
  remote.shards[0].health = ShardHealth::kDead;
  remote.keys["peer-doc"] = {1, false};
  std::string out;
  ASSERT_TRUE(handler->HandleLine("GOSSIP " + remote.EncodeWire(), &out));
  EXPECT_EQ(out.rfind("DIGEST ", 0), 0u) << out;
  EXPECT_NE(out.find("\nOK adopted=2\n"), std::string::npos) << out;
  EXPECT_EQ(cluster.router->shard_health(0), ShardHealth::kDead);
  EXPECT_EQ(cluster.router->replicator()->known_keys(), 1u);

  // The reply's DIGEST line is our post-merge state: a second delivery
  // of the same digest adopts nothing (idempotent on the wire too).
  out.clear();
  handler->HandleLine("GOSSIP " + remote.EncodeWire(), &out);
  EXPECT_NE(out.find("\nOK adopted=0\n"), std::string::npos) << out;

  // Malformed payloads answer ERR without disturbing the ring.
  out.clear();
  handler->HandleLine("GOSSIP", &out);
  EXPECT_EQ(out.rfind("ERR ", 0), 0u) << out;
  out.clear();
  handler->HandleLine("GOSSIP corrupt-token", &out);
  EXPECT_EQ(out.rfind("ERR ", 0), 0u) << out;
  EXPECT_EQ(cluster.router->shard_health(1), ShardHealth::kServing);

  // The gossip counters ride the router's own metrics section.
  std::string body = cluster.router->MetricsText();
  EXPECT_NE(body.find("xsq_router_gossip_rounds_total"), std::string::npos);
  EXPECT_NE(body.find("xsq_router_gossip_merges_total 2"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("xsq_router_gossip_peer_down_total"),
            std::string::npos);
}

TEST(RouterTest, GossipVerbIsNotSupportedWhenGossipIsOff) {
  ClusterHarness cluster(2);
  auto handler = cluster.router->MakeHandler();
  std::string out;
  handler->HandleLine("GOSSIP anything", &out);
  EXPECT_EQ(out.rfind("ERR NotSupported", 0), 0u) << out;
  // The metrics section still exposes the (zeroed) gossip families so
  // dashboards need no conditional scrape config.
  std::string body = cluster.router->MetricsText();
  EXPECT_NE(body.find("xsq_router_gossip_rounds_total 0"),
            std::string::npos);
}

TEST(ClusterReplFailPointsTest, ArmedSendSiteDropsJobsAndSweepHeals) {
  if (!kFailPointsCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (-DXSQ_FAILPOINTS=OFF)";
  }
  RouterConfig base = ReplicatedConfig();
  base.replication.max_attempts = 2;
  base.replication.retry_backoff_ms = 5;
  ClusterHarness cluster(3, base);
  auto handler = cluster.router->MakeHandler();

  FailPoints::Instance().Arm("cluster.repl.fail");
  std::string out;
  handler->HandleLine("RECORD fp-doc <r><a>f</a></r>", &out);
  ASSERT_EQ(out.rfind("OK ", 0), 0u) << out;
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  FailPoints::Instance().DisarmAll();

  // Every send attempt fired the failpoint: the fanout job burned its
  // retries and was dropped — cleanly, as a counter, not a crash.
  std::vector<size_t> owners =
      cluster.router->shard_map().Owners("fp-doc", 2, {true, true, true});
  Replicator::Counters repl = cluster.router->replicator()->counters();
  EXPECT_GE(repl.failed, 1u);
  EXPECT_FALSE(cluster.services[owners[1]]->ServeTape("fp-doc").ok());

  // With the site disarmed, anti-entropy repairs what the drops lost.
  cluster.router->replicator()->SweepNow();
  ASSERT_TRUE(cluster.router->replicator()->WaitIdle());
  EXPECT_TRUE(cluster.services[owners[1]]->ServeTape("fp-doc").ok());
}

}  // namespace
}  // namespace xsq
