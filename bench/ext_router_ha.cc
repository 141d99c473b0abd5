// Extension experiment: router high availability (cluster/gossip.h +
// net::Client multi-endpoint failover), enforced by exit status.
// argv[1] names the xsqd binary, argv[2] the xsq_router binary (the
// ctest registration passes $<TARGET_FILE:...> for both).
//
//   (a) gossip convergence: two routers over the same 3 shards are
//       handed a staged disagreement (each believes a different view
//       of one shard's liveness) plus a key index only one of them
//       has; ONE push-pull exchange round — one gossip interval —
//       leaves both with identical digests, identical liveness masks,
//       and identical ring owners for every key, and the surviving
//       router's sweep universe contains keys it never saw RECORDed;
//   (b) SIGKILL failover: two real xsq_router processes gossiping
//       over --peers, a client listing both endpoints; router A is
//       killed -9 mid-RECORD-workload and 100% of the idempotent
//       requests still complete via client-side failover, with every
//       key resident on exactly one shard — the ring owner BOTH
//       routers computed, i.e. zero duplicate placements — and the
//       survivor's gossip metrics mark the dead peer within a bounded
//       number of intervals;
//   (c) transcript parity: the OPEN/RUNCACHED/CLOSE replay of every
//       key through the surviving endpoint set is byte-identical to
//       the same sequence against a fresh single-router deployment —
//       failover is invisible in the bytes.
//
// Any violated bound fails the run (exit status 1).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/gossip.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "daemon_rig.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "net/server.h"

namespace xsq::bench {
namespace {

using cluster::GossipDigest;
using cluster::Router;
using cluster::RouterConfig;
using cluster::ShardAddress;
using cluster::ShardHealth;
using cluster::ShardMap;
using net::LineProtocol;

constexpr const char* kQuery = "/dblp/article/title/text()";
constexpr size_t kDocs = 24;

// Binds an ephemeral port, reads it back, releases it: xsq_router A
// needs B's port on its command line before B exists (and vice versa),
// so both are reserved up front.
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

// Scrapes one scalar from a router's METRICS verb reply; -1 on error.
int64_t ScrapeMetric(net::Client& client, const std::string& name) {
  auto reply = client.Request("METRICS");
  if (!reply.ok() || !reply->status.ok()) return -1;
  const std::string needle = "METRIC " + name + " ";
  for (const std::string& line : reply->lines) {
    if (line.rfind(needle, 0) == 0) {
      return std::strtoll(line.c_str() + needle.size(), nullptr, 10);
    }
  }
  return -1;
}

std::string DocName(size_t i) { return "hadoc" + std::to_string(i); }

// ------------------------------------------- (a) staged-disagreement merge

int GossipConvergence(const std::vector<ShardAddress>& shards,
                      const std::vector<std::string>& docs,
                      bool* converged) {
  std::printf(
      "\n(a) Gossip: staged disagreement converges in one exchange round\n");
  // Two in-process routers over the same shard set, each behind a real
  // net::Server so the exchange rides the actual GOSSIP verb + TCP.
  auto make = [&shards]() -> std::unique_ptr<Router> {
    RouterConfig config;
    config.shards = shards;
    config.start_prober = false;
    config.gossip.enable = true;
    config.gossip.start = false;  // rounds fire on ExchangeNow only
    auto created = Router::Create(std::move(config));
    if (!created.ok()) return nullptr;
    (*created)->ProbeNow();
    return *std::move(created);
  };
  std::unique_ptr<Router> a = make();
  std::unique_ptr<Router> b = make();
  if (a == nullptr || b == nullptr) return 1;
  auto server_a = net::Server::Create(a->MakeServerApp(), net::ServerConfig());
  auto server_b = net::Server::Create(b->MakeServerApp(), net::ServerConfig());
  if (!server_a.ok() || !server_b.ok()) return 1;
  a->gossip()->AddPeer({"127.0.0.1", (*server_b)->port()});
  b->gossip()->AddPeer({"127.0.0.1", (*server_a)->port()});

  // Router A carries the whole key index (every RECORD went through
  // it); router B has never seen one of these keys.
  auto handler = a->MakeHandler();
  for (size_t i = 0; i < docs.size(); ++i) {
    std::string out;
    handler->HandleLine("RECORD " + DocName(i) + " " +
                            LineProtocol::Escape(docs[i]),
                        &out);
    if (out.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "RECORD failed: %.200s\n", out.c_str());
      return 1;
    }
  }

  // The staged disagreement: A's prober saw shard 1 die; B's did not.
  const size_t victim = 1;
  a->gossip()->LocalObservation(victim, ShardHealth::kDead);
  bool disagreed = a->gossip()->Snapshot() != b->gossip()->Snapshot();

  // ONE push-pull round — what one jittered gossip interval runs.
  a->gossip()->ExchangeNow();

  GossipDigest digest_a = a->gossip()->Snapshot();
  GossipDigest digest_b = b->gossip()->Snapshot();
  bool digests_equal = digest_a == digest_b;
  bool masks_equal = a->AliveMask() == b->AliveMask();
  bool victim_dead_everywhere =
      a->shard_health(victim) == ShardHealth::kDead &&
      b->shard_health(victim) == ShardHealth::kDead;
  size_t owners_equal = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (a->OwnerOf(DocName(i)) == b->OwnerOf(DocName(i))) ++owners_equal;
  }
  // B learned the key universe it never saw RECORDed — this is what
  // lets a surviving router sweep-repair after its peer dies.
  size_t keys_learned = b->replicator()->known_keys();

  *converged = disagreed && digests_equal && masks_equal &&
               victim_dead_everywhere && owners_equal == docs.size() &&
               keys_learned == docs.size() &&
               b->gossip()->counters().merges >= docs.size() + 1;

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"staged disagreement", disagreed ? "yes" : "no"});
  table.AddRow({"exchange rounds", "1"});
  table.AddRow({"digests equal after round", digests_equal ? "yes" : "no"});
  table.AddRow({"liveness masks equal", masks_equal ? "yes" : "no"});
  table.AddRow({"ring owners equal", std::to_string(owners_equal) + "/" +
                                         std::to_string(docs.size())});
  table.AddRow({"keys learned by peer", std::to_string(keys_learned) + "/" +
                                            std::to_string(docs.size())});
  table.AddRow(
      {"entries adopted by peer",
       std::to_string(b->gossip()->counters().merges)});
  table.Print();
  std::printf("bound: convergence within one gossip round -> %s\n",
              *converged ? "PASS" : "FAIL");

  (*server_a)->Stop();
  (*server_b)->Stop();
  return 0;
}

// ------------------------------------------------ (b) SIGKILL mid-workload

struct FailoverResult {
  std::vector<std::string> replay_blocks;  // RUNCACHED replies post-kill
  bool passed = false;
};

int KillRouterMidWorkload(const std::string& router_binary,
                          const std::vector<ShardAddress>& shards,
                          const std::vector<std::string>& docs,
                          FailoverResult* result) {
  std::printf("\n(b) SIGKILL one of two routers mid-workload\n");
  uint16_t port_a = ReserveEphemeralPort();
  uint16_t port_b = ReserveEphemeralPort();
  auto spawn = [&](uint16_t listen, uint16_t peer,
                   DaemonProcess* process) {
    std::vector<std::string> argv = {
        router_binary,
        "--listen=" + std::to_string(listen),
        "--probe-interval-ms=200",
        "--probe-fail-threshold=2",
        "--gossip-interval-ms=100",
        "--peers=127.0.0.1:" + std::to_string(peer),
    };
    for (const ShardAddress& shard : shards) {
      argv.push_back("--shard=" + shard.host + ":" +
                     std::to_string(shard.port));
    }
    return process->Start(argv);
  };
  DaemonProcess router_a;
  DaemonProcess router_b;
  if (!spawn(port_a, port_b, &router_a) ||
      !spawn(port_b, port_a, &router_b)) {
    std::fprintf(stderr, "failed to start routers\n");
    return 1;
  }

  net::ClientConfig config;
  config.endpoints = {{"127.0.0.1", router_a.port()},
                      {"127.0.0.1", router_b.port()}};
  config.connect_timeout_ms = 1000;
  config.request_timeout_ms = 5000;
  net::Client client(config);

  // The workload: RECORD every doc, router A murdered halfway through.
  const size_t kill_at = docs.size() / 2;
  size_t completed = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (i == kill_at) router_a.Kill(SIGKILL);
    auto reply = client.Request("RECORD " + DocName(i) + " " +
                                LineProtocol::Escape(docs[i]));
    if (reply.ok() && reply->status.ok()) ++completed;
  }
  const uint64_t failovers = client.counters().failovers;

  // Zero duplicate placements: every key on exactly ONE shard, and it
  // is the ring owner both routers compute (same topology, same vnode
  // count, all shards alive -> identical rings iff no split brain).
  std::vector<std::set<std::string>> resident(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    if (!Inventory(shards[s].port, &resident[s])) return 1;
  }
  ShardMap ring(shards.size(), RouterConfig().vnodes);
  size_t exact = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    std::string name = DocName(i);
    size_t owner = *ring.Owner(name);
    bool ok = true;
    for (size_t s = 0; s < shards.size(); ++s) {
      ok = ok && resident[s].count(name) == (s == owner ? 1u : 0u);
    }
    if (ok) ++exact;
  }

  // The survivor's gossip marks the dead peer within a bounded number
  // of intervals (peer_fail_threshold * interval + jitter).
  net::ClientConfig direct_b;
  direct_b.port = router_b.port();
  net::Client survivor(direct_b);
  bool peer_marked_down = WaitFor(
      [&] {
        return ScrapeMetric(survivor, "xsq_router_gossip_peer_down_total") >=
               1;
      },
      8000, 20);
  int64_t rounds = ScrapeMetric(survivor, "xsq_router_gossip_rounds_total");

  // Sticky-session failover: replay every key through the endpoint
  // list (OPEN must re-route to the survivor — A's corpse is first in
  // the list, so the non-idempotent OPEN surfaces a retryable error
  // once and the replay lands on B).
  auto session = [&](net::Client& c,
                     std::vector<std::string>* blocks) -> bool {
    std::string id;
    for (size_t attempt = 0; attempt < 2 && id.empty(); ++attempt) {
      auto open = c.Request(std::string("OPEN ") + kQuery);
      if (open.ok() && open->status.ok()) id = open->ok_payload;
    }
    if (id.empty()) return false;
    for (size_t i = 0; i < docs.size(); ++i) {
      auto reply = c.Request("RUNCACHED " + id + " " + DocName(i));
      if (!reply.ok()) return false;
      std::string block;
      for (const std::string& line : reply->lines) block += line + "\n";
      block += reply->status.ok() ? "OK " + reply->ok_payload + "\n"
                                  : "ERR " + reply->status.ToString() + "\n";
      blocks->push_back(std::move(block));
    }
    (void)c.Request("CLOSE " + id);
    return true;
  };
  net::Client failover_client(config);  // fresh: starts at the corpse
  bool replayed = session(failover_client, &result->replay_blocks);
  size_t replay_ok = 0;
  for (const std::string& block : result->replay_blocks) {
    if (block.find("ERR ") == std::string::npos) ++replay_ok;
  }

  result->passed = completed == docs.size() && failovers >= 1 &&
                   exact == docs.size() && peer_marked_down && rounds >= 1 &&
                   replayed && replay_ok == docs.size();

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"RECORDs completed", std::to_string(completed) + "/" +
                                         std::to_string(docs.size())});
  table.AddRow({"client failovers", std::to_string(failovers)});
  table.AddRow({"keys on exactly the ring owner",
                std::to_string(exact) + "/" + std::to_string(docs.size())});
  table.AddRow({"survivor gossip rounds", std::to_string(rounds)});
  table.AddRow({"dead peer marked down", peer_marked_down ? "yes" : "no"});
  table.AddRow({"post-kill replays OK", std::to_string(replay_ok) + "/" +
                                            std::to_string(docs.size())});
  table.Print();
  std::printf(
      "bound: 100%% completion, zero duplicate placements, peer marked "
      "down -> %s\n",
      result->passed ? "PASS" : "FAIL");

  router_b.Kill(SIGTERM);
  return 0;
}

// --------------------------------------------------- (c) transcript parity

int TranscriptParity(const std::string& router_binary,
                     const std::vector<ShardAddress>& shards,
                     const std::vector<std::string>& docs,
                     const FailoverResult& failover, bool* identical) {
  std::printf("\n(c) Transcript parity: failover vs single-router bytes\n");
  // A fresh single-router deployment over the same shards (the tapes
  // are resident; RUNCACHED replays deterministically).
  std::vector<std::string> argv = {router_binary, "--listen=0"};
  for (const ShardAddress& shard : shards) {
    argv.push_back("--shard=" + shard.host + ":" +
                   std::to_string(shard.port));
  }
  DaemonProcess solo;
  if (!solo.Start(argv)) {
    std::fprintf(stderr, "failed to start the single router\n");
    return 1;
  }
  net::ClientConfig config;
  config.port = solo.port();
  net::Client client(config);
  auto open = client.Request(std::string("OPEN ") + kQuery);
  if (!open.ok() || !open->status.ok()) return 1;
  std::vector<std::string> baseline;
  for (size_t i = 0; i < docs.size(); ++i) {
    auto reply = client.Request("RUNCACHED " + open->ok_payload + " " +
                                DocName(i));
    if (!reply.ok()) return 1;
    std::string block;
    for (const std::string& line : reply->lines) block += line + "\n";
    block += reply->status.ok()
                 ? "OK " + reply->ok_payload + "\n"
                 : "ERR " + reply->status.ToString() + "\n";
    baseline.push_back(std::move(block));
  }
  (void)client.Request("CLOSE " + open->ok_payload);

  size_t matches = 0;
  for (size_t i = 0;
       i < docs.size() && i < failover.replay_blocks.size(); ++i) {
    if (baseline[i] == failover.replay_blocks[i]) ++matches;
  }
  *identical = matches == docs.size();

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"byte-identical reply blocks",
                std::to_string(matches) + "/" + std::to_string(docs.size())});
  table.Print();
  std::printf("bound: failover invisible in the bytes -> %s\n",
              *identical ? "PASS" : "FAIL");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <xsqd-binary> <xsq_router-binary>\n",
                 argv[0]);
    return 2;
  }
  PrintHeader("Extension: router high availability",
              "gossiped membership + client-side failover: staged "
              "disagreement converges in one round, SIGKILL one of two "
              "routers costs zero requests and zero duplicate placements");

  std::vector<std::string> docs;
  for (uint64_t seed = 1; seed <= kDocs; ++seed) {
    docs.push_back(datagen::GenerateDblp(ScaledBytes(24u << 10), seed));
  }

  std::vector<std::unique_ptr<DaemonProcess>> shards;
  std::vector<ShardAddress> addresses;
  for (size_t i = 0; i < 3; ++i) {
    auto shard = std::make_unique<DaemonProcess>();
    // --doc-cache=0: the audit legs inventory every recorded document.
    if (!shard->Start({argv[1], "--listen=0", "--workers=2",
                       "--doc-cache=0"})) {
      std::fprintf(stderr, "failed to start shard %zu\n", i);
      return 1;
    }
    addresses.push_back({"127.0.0.1", shard->port()});
    shards.push_back(std::move(shard));
  }

  bool converged = false;
  FailoverResult failover;
  bool identical = false;
  if (GossipConvergence(addresses, docs, &converged) != 0) return 1;
  if (KillRouterMidWorkload(argv[2], addresses, docs, &failover) != 0) {
    return 1;
  }
  if (TranscriptParity(argv[2], addresses, docs, failover, &identical) != 0) {
    return 1;
  }

  std::printf(
      "\nExpected shape: the digest merge is a total-order join, so one\n"
      "push-pull round makes two disagreeing routers identical; with the\n"
      "masks converged both compute the same ring, so a client failing\n"
      "over mid-workload never creates a duplicate placement and the\n"
      "surviving router's transcript matches a single-router deployment\n"
      "byte for byte.\n");
  return converged && failover.passed && identical ? 0 : 1;
}

}  // namespace
}  // namespace xsq::bench

int main(int argc, char** argv) { return xsq::bench::Main(argc, argv); }
