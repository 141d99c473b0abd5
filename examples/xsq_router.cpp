// xsq_router: the cluster front-tier daemon. Speaks the xsqd line
// protocol to clients and fans requests out to N backend xsqd shards
// (see src/cluster/router.h for the routing rules).
//
//   $ xsqd --listen=9101 &   # shard 0
//   $ xsqd --listen=9102 &   # shard 1
//   $ xsqd --listen=9103 &   # shard 2
//   $ xsq_router --listen=9100 --shard=127.0.0.1:9101
//         --shard=127.0.0.1:9102 --shard=127.0.0.1:9103   # one line
//
// Clients connect to the router exactly as they would to one xsqd:
// OPEN/PUSH/CLOSE stream through a least-loaded shard, RECORD and
// RUNCACHED follow the document key's consistent-hash owner, STATS and
// METRICS return the merged cluster view, and GET /metrics on the
// router's port serves the merged exposition plus the router's own
// xsq_router_* section. Shard-only verbs (SUBSCRIBE/UNSUBSCRIBE/
// PUBLISH, REPLPULL; see net/verbs.h) are answered with NotSupported.
//
// Health: every --probe-interval-ms (±20% jitter) the router polls
// each shard's GET /healthz; --probe-fail-threshold consecutive misses
// mark a shard dead and its keys remap to the surviving ring;
// --probe-rise-threshold consecutive good probes bring it back
// (anti-flap hysteresis; default 1 = instantly).
//
// High availability: run N >= 2 routers over the same --shard set and
// point each at the others with --peers=HOST:PORT,... Routers exchange
// gossip digests (per-shard health epochs + the RECORD key index) on a
// jittered --gossip-interval-ms cadence via the GOSSIP verb, so their
// liveness masks converge within one interval and every router
// computes the same ring for every key. Clients list every router
// (xsqctl --router=a:PORT,b:PORT); transport failures fail over to the
// next endpoint. A peer that stops answering is marked down in
// xsq_router_gossip_peer_down_total — client failover is the recovery
// path; routers never proxy for each other.
//
// Replication: --replication-factor=N (default 1 = off) keeps N copies
// of every recorded tape on the key's first N distinct ring owners.
// The primary write stays synchronous; replicas fill from an async
// fanout queue. When the primary dies, RUNCACHED serves byte-identical
// replay from a replica with zero client re-records, and after every
// probe pass that changed the liveness mask an anti-entropy sweep
// re-replicates under-replicated keys (shard-to-shard REPLPULL,
// CRC-verified). REPLSTATUS on the router reports the plane's state.
//
// Flags: --listen=PORT (0 picks an ephemeral port, printed as
//        "LISTENING <port>"), --shard=HOST:PORT (repeat per shard),
//        --vnodes=N (ring points per shard; default 64),
//        --replication-factor=N (tape copies; default 1),
//        --probe-interval-ms=N (default 500),
//        --probe-fail-threshold=N (default 3),
//        --probe-rise-threshold=N (good probes to resurrect; default 1),
//        --peers=HOST:PORT[,HOST:PORT...] (fellow routers to gossip
//        with; repeatable), --gossip-interval-ms=N (default 500),
//        --request-timeout-ms=N (per backend request; default 5000),
//        --pool-conns=N (pooled connections per shard; default 4),
//        --max-connections=N (router accept shed; default 64),
//        --drain-deadline-ms=N (shutdown drain bound; default 2000).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "cluster/router.h"
#include "net/client.h"
#include "net/server.h"

namespace {

std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

void InstallSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

size_t FlagValue(std::string_view arg, size_t fallback) {
  size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return fallback;
  return static_cast<size_t>(
      std::strtoull(std::string(arg.substr(eq + 1)).c_str(), nullptr, 10));
}

int Usage() {
  std::fprintf(stderr,
               "usage: xsq_router --listen=PORT --shard=HOST:PORT... "
               "[--peers=HOST:PORT[,HOST:PORT...]] [flags]; PORT is "
               "1-65535 (--listen=0 picks a free port)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xsq::cluster::RouterConfig config;
  xsq::net::ServerConfig net_config;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--listen=", 0) == 0) {
      std::optional<uint16_t> port = xsq::net::ParseListenPort(arg.substr(9));
      if (!port.has_value()) return Usage();
      net_config.port = *port;
    } else if (arg.rfind("--shard=", 0) == 0) {
      std::optional<xsq::net::Endpoint> shard =
          xsq::net::ParseEndpoint(arg.substr(8));
      if (!shard.has_value()) return Usage();
      config.shards.push_back(*std::move(shard));
    } else if (arg.rfind("--vnodes", 0) == 0) {
      config.vnodes = FlagValue(arg, config.vnodes);
    } else if (arg.rfind("--replication-factor", 0) == 0) {
      config.replication.factor = FlagValue(arg, config.replication.factor);
    } else if (arg.rfind("--probe-interval-ms", 0) == 0) {
      config.probe.interval_ms = FlagValue(arg, config.probe.interval_ms);
    } else if (arg.rfind("--probe-fail-threshold", 0) == 0) {
      config.probe.fail_threshold =
          static_cast<int>(FlagValue(arg, config.probe.fail_threshold));
    } else if (arg.rfind("--probe-rise-threshold", 0) == 0) {
      config.probe.rise_threshold =
          static_cast<int>(FlagValue(arg, config.probe.rise_threshold));
    } else if (arg.rfind("--peers=", 0) == 0) {
      auto peers = xsq::net::ParseEndpoints(arg.substr(8));
      if (!peers.has_value()) return Usage();
      config.gossip.peers.insert(config.gossip.peers.end(), peers->begin(),
                                 peers->end());
      config.gossip.enable = true;
    } else if (arg.rfind("--gossip-interval-ms", 0) == 0) {
      config.gossip.interval_ms = FlagValue(arg, config.gossip.interval_ms);
    } else if (arg.rfind("--request-timeout-ms", 0) == 0) {
      config.backend.request_timeout_ms =
          FlagValue(arg, config.backend.request_timeout_ms);
    } else if (arg.rfind("--pool-conns", 0) == 0) {
      config.backend.max_pool_conns =
          FlagValue(arg, config.backend.max_pool_conns);
    } else if (arg.rfind("--max-connections", 0) == 0) {
      net_config.max_connections = FlagValue(arg, net_config.max_connections);
    } else if (arg.rfind("--drain-deadline-ms", 0) == 0) {
      net_config.drain_deadline_ms =
          FlagValue(arg, net_config.drain_deadline_ms);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(arg).c_str());
      return Usage();
    }
  }
  if (config.shards.empty()) return Usage();

  auto router = xsq::cluster::Router::Create(std::move(config));
  if (!router.ok()) {
    std::fprintf(stderr, "router init failed: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }
  // Mark shards' initial health before serving, so the first client
  // request does not race the first probe pass.
  (*router)->ProbeNow();

  auto server =
      xsq::net::Server::Create((*router)->MakeServerApp(), net_config);
  if (!server.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);

  InstallSignalHandlers();
  while (g_signal.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->BeginDrain();
  (*server)->Stop();
  return 0;
}
