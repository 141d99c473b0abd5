// Gossip: anti-entropy membership exchange between xsq_router peers,
// so N >= 2 routers run active-active over the same shard set with no
// single point of failure (DESIGN.md §15).
//
// Each router's routing state is a versioned, mergeable GossipDigest
// holding one {epoch, health} entry per shard: the serving/shedding/
// draining/dead flag the ring routes by, stamped with a monotonically
// increasing epoch that bumps on every locally observed transition.
// The digest's size depends on the shard count alone. Which documents
// exist is not gossiped: the shards' REPLSTATUS inventories are the
// cluster's only document index (cluster/replication.h).
//
// Merge is max-epoch-wins per entry with a deterministic tie break
// (equal epochs: the *worse* health wins). Each entry's merge is
// therefore a join in a total order — commutative, associative,
// idempotent — so any exchange pattern converges: two routers whose
// probe passes disagree agree on one mask after a single push-pull
// round, and routers that agree on the mask compute identical rings
// for every key (ShardMap is a pure function of topology + mask).
// gossip_test pins the algebra.
//
// Wire: the digest serializes to a line-oriented block guarded by a
// CRC32C trailer (same checksum discipline as the tape format), which
// is LineEscape'd onto a single "GOSSIP <payload>" protocol line — the
// verb rides the existing router port and net::Client machinery. The
// receiving router merges the remote digest and replies
// "DIGEST <its own post-merge digest>" + "OK adopted=<n>", making
// every exchange push-pull: one round converges both ends.
//
// Peer liveness is tracked by the exchange itself: a peer that stops
// answering GOSSIP for kPeerFailThreshold consecutive rounds is
// marked down (xsq_router_gossip_peer_down_total); clients' multi-
// endpoint failover (net::Client endpoints) is the recovery path —
// routers never proxy for each other.
#ifndef XSQ_CLUSTER_GOSSIP_H_
#define XSQ_CLUSTER_GOSSIP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/backend_pool.h"
#include "common/status.h"
#include "net/client.h"

namespace xsq::cluster {

// The versioned, mergeable router state. Pure value type; the merge
// algebra lives here so property tests need no agent or network.
struct GossipDigest {
  struct ShardEntry {
    uint64_t epoch = 0;
    ShardHealth health = ShardHealth::kServing;

    bool operator==(const ShardEntry&) const = default;
  };

  std::vector<ShardEntry> shards;  // indexed by shard

  // True when `incoming` supersedes `current` (strictly greater epoch,
  // or equal epoch and a "worse" value — the deterministic tie break
  // that makes the merge a total-order join).
  static bool Supersedes(const ShardEntry& incoming,
                         const ShardEntry& current);

  // Merges `other` into *this, entry-wise max-epoch-wins. Returns how
  // many entries were adopted from `other`. The optional callback fires
  // once per adopted entry (the agent applies it to the Backend).
  size_t MergeFrom(const GossipDigest& other,
                   const std::function<void(size_t, const ShardEntry&)>&
                       on_shard = nullptr);

  bool operator==(const GossipDigest&) const = default;

  // Line-oriented text block with a CRC32C trailer:
  //   XSQGOSSIP v2 shards=<n>
  //   S <index> <epoch> <health>
  //   CRC <8 hex digits>
  // A v1 block (which also carried per-key "K" lines) fails to parse.
  std::string Serialize() const;
  static Result<GossipDigest> Parse(std::string_view text);

  // The single-token wire form carried by "GOSSIP <token>" and
  // "DIGEST <token>": Serialize() under protocol line escaping.
  std::string EncodeWire() const;
  static Result<GossipDigest> DecodeWire(std::string_view token);
};

struct GossipConfig {
  // Enable the agent even with an empty initial roster (tests and
  // benches discover peer ports after startup and AddPeer() later).
  // Peers present implies enabled.
  bool enable = false;
  // Fellow routers' protocol addresses (the same port clients use).
  std::vector<net::Endpoint> peers;
  // Anti-entropy exchange cadence; jittered ±20% per round so a fleet
  // of routers never synchronizes into an exchange storm.
  uint64_t interval_ms = 500;
  uint64_t connect_timeout_ms = 1000;
  uint64_t request_timeout_ms = 2000;
  // Start the background exchange thread. Tests and benches that want
  // deterministic rounds set false and call ExchangeNow().
  bool start = true;
};

// The per-router gossip endpoint: owns the digest, the peer roster,
// and the background exchange loop. Thread safe; HandleExchange is
// called from server worker threads, LocalObservation from the probe
// thread, ExchangeNow from the gossip thread or tests.
class GossipAgent {
 public:
  // Consecutive failed exchanges before a peer is marked down: one
  // lost round is noise, three at the default interval is a dead peer.
  static constexpr int kPeerFailThreshold = 3;
  // Seed of the interval jitter stream; fixed so runs are repeatable.
  static constexpr uint64_t kJitterSeed = 0x9e3779b97f4a7c15ull;

  // `backends` outlive the agent (owned by the Router that owns this).
  GossipAgent(std::vector<Backend*> backends, GossipConfig config);
  ~GossipAgent();

  GossipAgent(const GossipAgent&) = delete;
  GossipAgent& operator=(const GossipAgent&) = delete;

  void Start();
  void Stop();

  // Extends the peer roster at runtime (benches learn peer ports after
  // both routers are listening).
  void AddPeer(const net::Endpoint& peer);
  size_t peer_count() const;

  // The health prober's write path when gossip is on: a locally
  // observed transition bumps the shard's epoch (out-epoching every
  // entry this router has seen) so the observation propagates; an
  // unchanged observation is a no-op. Applies the health to the
  // Backend either way.
  void LocalObservation(size_t shard, ShardHealth health);

  // Server side of the GOSSIP verb: decode + merge the remote digest
  // (applying adopted entries to the backends), return our post-merge
  // digest for the "DIGEST" reply line.
  struct ExchangeReply {
    std::string wire;     // post-merge digest, EncodeWire()'d
    size_t adopted = 0;   // entries learned from the remote digest
  };
  Result<ExchangeReply> HandleExchange(std::string_view wire_token);

  // One synchronous push-pull round with every peer. Safe with or
  // without the background thread running (rounds are serialized).
  void ExchangeNow();

  GossipDigest Snapshot() const;

  struct Counters {
    uint64_t rounds = 0;      // completed exchange rounds
    uint64_t merges = 0;      // entries adopted from remote digests
    uint64_t peer_down = 0;   // up->down peer transitions observed
    uint64_t peers_down = 0;  // gauge: peers currently down
  };
  Counters counters() const;

 private:
  struct Peer {
    net::Endpoint address;
    std::unique_ptr<net::Client> client;
    int consecutive_failures = 0;
    bool down = false;
  };

  // Merges `remote` into digest_ under digest_mu_, applying adopted
  // entries to the backends.
  size_t MergeAndApply(const GossipDigest& remote);
  void Loop();

  const std::vector<Backend*> backends_;
  const GossipConfig config_;

  mutable std::mutex digest_mu_;
  GossipDigest digest_;

  mutable std::mutex peers_mu_;  // roster + per-peer clients/liveness
  std::vector<std::unique_ptr<Peer>> peers_;

  std::mutex round_mu_;  // serializes ExchangeNow rounds

  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stopping_ = false;
  std::thread thread_;
  SplitMix64 jitter_state_;

  std::atomic<uint64_t> rounds_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> peer_down_{0};
  std::atomic<uint64_t> peers_down_{0};
};

}  // namespace xsq::cluster

#endif  // XSQ_CLUSTER_GOSSIP_H_
