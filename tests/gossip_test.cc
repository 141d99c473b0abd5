// Tests for the router gossip layer (src/cluster/gossip.h): the
// GossipDigest merge algebra (the property suite that makes the
// convergence argument in DESIGN.md §15 a theorem — the per-entry
// merge is a join in a total order, so it must be commutative,
// associative, and idempotent under arbitrary digests), the wire
// format's CRC discipline, and the GossipAgent's epoch bookkeeping:
// local observations out-epoch everything seen, and push-pull
// exchanges converge two disagreeing agents in one round.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/gossip.h"
#include "cluster/shard_map.h"
#include "common/crc32c.h"
#include "common/status.h"
#include "common/strings.h"
#include "gtest/gtest.h"

namespace xsq {
namespace {

using cluster::Backend;
using cluster::BackendConfig;
using cluster::GossipAgent;
using cluster::GossipConfig;
using cluster::GossipDigest;
using cluster::ShardHealth;
using cluster::ShardMap;

// A digest with every field drawn from the rng: epochs collide on
// purpose (small range) so the tie-break arms of the merge actually
// run.
GossipDigest RandomDigest(SplitMix64& rng, size_t num_shards) {
  GossipDigest digest;
  digest.shards.resize(num_shards);
  for (auto& shard : digest.shards) {
    shard.epoch = rng.Below(6);
    shard.health = static_cast<ShardHealth>(rng.Below(4));
  }
  return digest;
}

GossipDigest Merge(GossipDigest a, const GossipDigest& b) {
  a.MergeFrom(b);
  return a;
}

TEST(GossipDigestTest, SupersedesOrdersByEpochThenSeverity) {
  using ShardEntry = GossipDigest::ShardEntry;
  // Strictly newer epoch wins regardless of value.
  EXPECT_TRUE(GossipDigest::Supersedes(ShardEntry{2, ShardHealth::kServing},
                                       ShardEntry{1, ShardHealth::kDead}));
  EXPECT_FALSE(GossipDigest::Supersedes(ShardEntry{1, ShardHealth::kDead},
                                        ShardEntry{2, ShardHealth::kServing}));
  // Equal epochs: the worse health wins (deterministic tie break, and
  // the safe direction — a router that believes a shard is dead should
  // not be argued back by an equally-old opinion).
  EXPECT_TRUE(GossipDigest::Supersedes(ShardEntry{3, ShardHealth::kDead},
                                       ShardEntry{3, ShardHealth::kServing}));
  EXPECT_FALSE(GossipDigest::Supersedes(ShardEntry{3, ShardHealth::kServing},
                                        ShardEntry{3, ShardHealth::kDead}));
  // Identical entries do not supersede each other (idempotence).
  EXPECT_FALSE(GossipDigest::Supersedes(ShardEntry{3, ShardHealth::kDead},
                                        ShardEntry{3, ShardHealth::kDead}));
}

TEST(GossipDigestTest, MergeIsCommutative) {
  SplitMix64 rng(0xc0ffee);
  for (int trial = 0; trial < 200; ++trial) {
    GossipDigest a = RandomDigest(rng, 4);
    GossipDigest b = RandomDigest(rng, 4);
    EXPECT_EQ(Merge(a, b), Merge(b, a)) << "trial " << trial;
  }
}

TEST(GossipDigestTest, MergeIsAssociative) {
  SplitMix64 rng(0xdecade);
  for (int trial = 0; trial < 200; ++trial) {
    GossipDigest a = RandomDigest(rng, 4);
    GossipDigest b = RandomDigest(rng, 4);
    GossipDigest c = RandomDigest(rng, 4);
    EXPECT_EQ(Merge(Merge(a, b), c), Merge(a, Merge(b, c)))
        << "trial " << trial;
  }
}

TEST(GossipDigestTest, MergeIsIdempotent) {
  SplitMix64 rng(0xfeed);
  for (int trial = 0; trial < 100; ++trial) {
    GossipDigest a = RandomDigest(rng, 4);
    GossipDigest b = RandomDigest(rng, 4);
    // a ∨ a = a, with zero adoptions.
    GossipDigest self = a;
    EXPECT_EQ(self.MergeFrom(a), 0u);
    EXPECT_EQ(self, a);
    // (a ∨ b) ∨ b = a ∨ b: re-delivering a digest changes nothing.
    GossipDigest joined = Merge(a, b);
    GossipDigest again = joined;
    EXPECT_EQ(again.MergeFrom(b), 0u);
    EXPECT_EQ(again, joined);
  }
}

TEST(GossipDigestTest, MergeNeverLowersAnEpoch) {
  SplitMix64 rng(0xabcdef);
  for (int trial = 0; trial < 100; ++trial) {
    GossipDigest a = RandomDigest(rng, 4);
    GossipDigest b = RandomDigest(rng, 4);
    GossipDigest joined = Merge(a, b);
    for (size_t i = 0; i < a.shards.size(); ++i) {
      EXPECT_GE(joined.shards[i].epoch, a.shards[i].epoch);
      EXPECT_GE(joined.shards[i].epoch, b.shards[i].epoch);
    }
  }
}

TEST(GossipDigestTest, AllPairsExchangeConvergesKDivergentDigests) {
  // K routers each start with a different opinion; one all-pairs
  // push-pull sweep (each pair exchanges and both adopt the join)
  // leaves every router with the identical global join — bounded-round
  // convergence, which the agent's jittered loop then provides in one
  // interval per pair.
  SplitMix64 rng(0x5eed);
  constexpr size_t kRouters = 5;
  std::vector<GossipDigest> digests;
  for (size_t i = 0; i < kRouters; ++i) {
    digests.push_back(RandomDigest(rng, 6));
  }
  for (size_t i = 0; i < kRouters; ++i) {
    for (size_t j = i + 1; j < kRouters; ++j) {
      // Push-pull: j merges i's digest, i merges j's post-merge reply.
      digests[j].MergeFrom(digests[i]);
      digests[i].MergeFrom(digests[j]);
    }
  }
  for (size_t i = 1; i < kRouters; ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "router " << i;
  }
}

TEST(GossipDigestTest, WireRoundTripIsExact) {
  SplitMix64 rng(0x9a9a);
  for (int trial = 0; trial < 50; ++trial) {
    GossipDigest digest = RandomDigest(rng, 3);
    auto parsed = GossipDigest::Parse(digest.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, digest);
    auto decoded = GossipDigest::DecodeWire(digest.EncodeWire());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, digest);
  }
}

TEST(GossipDigestTest, CorruptOrTruncatedWireIsRejected) {
  SplitMix64 rng(0xbad);
  GossipDigest digest = RandomDigest(rng, 3);
  std::string text = digest.Serialize();

  // Any flipped payload byte trips the CRC trailer.
  std::string flipped = text;
  flipped[text.size() / 3] ^= 0x20;
  auto corrupt = GossipDigest::Parse(flipped);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataCorruption);

  // A truncated block lost its trailer.
  auto truncated = GossipDigest::Parse(text.substr(0, text.size() / 2));
  EXPECT_FALSE(truncated.ok());

  // Garbage and emptiness are clean errors, not crashes.
  EXPECT_FALSE(GossipDigest::Parse("").ok());
  EXPECT_FALSE(GossipDigest::Parse("XSQGOSSIP v2 shards=2\n").ok());
  EXPECT_FALSE(GossipDigest::DecodeWire("not-a-digest").ok());

  // A v1 block (the format that also carried per-key "K" lines) with a
  // valid CRC: the header's version alone refuses it, so an exchange
  // with an old peer fails instead of half-merging.
  std::string v1 = "XSQGOSSIP v1 shards=1\nS 0 0 serving\n";
  char crc[16];
  std::snprintf(crc, sizeof(crc), "CRC %08x\n", Crc32c(v1));
  auto parsed = GossipDigest::Parse(v1 + crc);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(GossipDigest::DecodeWire(LineEscape(v1 + crc)).ok());
  EXPECT_EQ(text.rfind("XSQGOSSIP v2 shards=3\n", 0), 0u) << text;
}

// ---------------------------------------------------------------------------
// GossipAgent: epoch bookkeeping and push-pull exchange, no network.
// Agents talk through the same HandleExchange entry point the GOSSIP
// verb uses; backends point at ports nothing listens on (the agent
// only writes their health flags here).

struct AgentHarness {
  explicit AgentHarness(size_t num_shards, uint16_t base_port) : map(num_shards, 8) {
    std::vector<Backend*> raw;
    for (size_t i = 0; i < num_shards; ++i) {
      backends.push_back(std::make_unique<Backend>(
          net::Endpoint{"127.0.0.1", static_cast<uint16_t>(base_port + i)},
          BackendConfig()));
      raw.push_back(backends.back().get());
    }
    GossipConfig gossip_config;
    gossip_config.enable = true;
    gossip_config.start = false;  // deterministic: tests drive exchanges
    agent = std::make_unique<GossipAgent>(raw, std::move(gossip_config));
  }

  ShardMap map;
  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<GossipAgent> agent;
};

// One no-network push-pull round: `a` pushes its digest to `b` (the
// GOSSIP verb's server side), then merges b's post-merge reply — the
// client side of the same round.
void PushPull(AgentHarness& a, AgentHarness& b) {
  auto reply = b.agent->HandleExchange(a.agent->Snapshot().EncodeWire());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto back = a.agent->HandleExchange(reply->wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
}

TEST(GossipAgentTest, LocalObservationBumpsEpochOnlyOnTransition) {
  AgentHarness harness(2, 39000);
  GossipDigest start = harness.agent->Snapshot();
  ASSERT_EQ(start.shards.size(), 2u);
  EXPECT_EQ(start.shards[0].epoch, 0u);

  harness.agent->LocalObservation(0, ShardHealth::kDead);
  GossipDigest after = harness.agent->Snapshot();
  EXPECT_EQ(after.shards[0].epoch, 1u);
  EXPECT_EQ(after.shards[0].health, ShardHealth::kDead);
  EXPECT_EQ(harness.backends[0]->health(), ShardHealth::kDead);

  // The same observation again is not a transition: no epoch churn,
  // nothing new to gossip.
  harness.agent->LocalObservation(0, ShardHealth::kDead);
  EXPECT_EQ(harness.agent->Snapshot().shards[0].epoch, 1u);

  harness.agent->LocalObservation(0, ShardHealth::kServing);
  EXPECT_EQ(harness.agent->Snapshot().shards[0].epoch, 2u);
  EXPECT_EQ(harness.backends[0]->health(), ShardHealth::kServing);
}

TEST(GossipAgentTest, PushPullConvergesTwoDisagreeingAgents) {
  AgentHarness a(3, 39100);
  AgentHarness b(3, 39100);  // same logical shard set
  // A staged disagreement: each router's prober saw a different shard
  // die (the scenario two probe threads racing a real outage produce).
  a.agent->LocalObservation(0, ShardHealth::kDead);
  b.agent->LocalObservation(1, ShardHealth::kDead);
  ASSERT_NE(a.agent->Snapshot(), b.agent->Snapshot());

  PushPull(a, b);

  // One round: both digests equal, both unions — shards 0 AND 1 dead
  // on both sides, and the backends (the ring's health source) agree.
  GossipDigest merged = a.agent->Snapshot();
  EXPECT_EQ(merged, b.agent->Snapshot());
  EXPECT_EQ(merged.shards[0].health, ShardHealth::kDead);
  EXPECT_EQ(merged.shards[1].health, ShardHealth::kDead);
  EXPECT_EQ(a.backends[1]->health(), ShardHealth::kDead);
  EXPECT_EQ(b.backends[0]->health(), ShardHealth::kDead);
  EXPECT_GE(a.agent->counters().merges, 1u);
  EXPECT_GE(b.agent->counters().merges, 1u);

  // Converged masks mean converged rings: ShardMap is a pure function
  // of topology + mask, so every key owner matches across routers.
  std::vector<bool> mask_a, mask_b;
  for (size_t i = 0; i < 3; ++i) {
    mask_a.push_back(a.backends[i]->alive());
    mask_b.push_back(b.backends[i]->alive());
  }
  ASSERT_EQ(mask_a, mask_b);
  for (int k = 0; k < 50; ++k) {
    std::string key = "doc-" + std::to_string(k);
    EXPECT_EQ(a.map.Owner(key, mask_a), b.map.Owner(key, mask_b)) << key;
  }
}

TEST(GossipAgentTest, FresherLocalObservationOutEpochsStaleRemote) {
  AgentHarness a(2, 39200);
  AgentHarness b(2, 39200);
  // B once saw shard 0 die, then A (whose probes still succeed)
  // observes it serving. A's transition must out-epoch B's stale dead
  // flag: after the exchange both sides route to shard 0 again.
  b.agent->LocalObservation(0, ShardHealth::kDead);
  PushPull(a, b);
  ASSERT_EQ(a.backends[0]->health(), ShardHealth::kDead);

  a.agent->LocalObservation(0, ShardHealth::kServing);  // epoch 2 > 1
  PushPull(a, b);
  EXPECT_EQ(a.backends[0]->health(), ShardHealth::kServing);
  EXPECT_EQ(b.backends[0]->health(), ShardHealth::kServing);
  EXPECT_EQ(a.agent->Snapshot().shards[0].epoch, 2u);
}

TEST(GossipAgentTest, ExchangeRejectsTopologyMismatchAndCorruptWire) {
  AgentHarness harness(2, 39400);
  GossipDigest wrong_size;
  wrong_size.shards.resize(3);
  auto mismatch = harness.agent->HandleExchange(wrong_size.EncodeWire());
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);

  auto garbage = harness.agent->HandleExchange("definitely-not-a-digest");
  EXPECT_FALSE(garbage.ok());

  // A rejected exchange leaves the local digest untouched.
  EXPECT_EQ(harness.agent->Snapshot().shards.size(), 2u);
  EXPECT_EQ(harness.agent->counters().merges, 0u);
}

}  // namespace
}  // namespace xsq
