#include "cluster/gossip.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/crc32c.h"
#include "common/strings.h"

namespace xsq::cluster {

namespace {

// Health rank for the equal-epoch tie break: the worse state wins, so
// two routers that disagree at the same epoch both settle on the
// conservative answer (and the next local probe pass out-epochs it if
// the shard is actually fine).
int HealthRank(ShardHealth health) { return static_cast<int>(health); }

bool ParseHealthName(std::string_view name, ShardHealth* out) {
  static constexpr ShardHealth kAll[] = {
      ShardHealth::kServing, ShardHealth::kShedding, ShardHealth::kDraining,
      ShardHealth::kDead};
  for (ShardHealth health : kAll) {
    if (name == ShardHealthName(health)) {
      *out = health;
      return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------
// GossipDigest: the merge algebra.

bool GossipDigest::Supersedes(const ShardEntry& incoming,
                              const ShardEntry& current) {
  if (incoming.epoch != current.epoch) return incoming.epoch > current.epoch;
  return HealthRank(incoming.health) > HealthRank(current.health);
}

bool GossipDigest::Supersedes(const KeyEntry& incoming,
                              const KeyEntry& current) {
  if (incoming.epoch != current.epoch) return incoming.epoch > current.epoch;
  // Equal epoch: the tombstone wins — never resurrect an evicted key
  // on a tie.
  return incoming.deleted && !current.deleted;
}

size_t GossipDigest::MergeFrom(
    const GossipDigest& other,
    const std::function<void(size_t, const ShardEntry&)>& on_shard,
    const std::function<void(const std::string&, const KeyEntry&)>& on_key) {
  size_t adopted = 0;
  size_t common = std::min(shards.size(), other.shards.size());
  for (size_t i = 0; i < common; ++i) {
    if (Supersedes(other.shards[i], shards[i])) {
      shards[i] = other.shards[i];
      ++adopted;
      if (on_shard) on_shard(i, shards[i]);
    }
  }
  for (const auto& [key, entry] : other.keys) {
    auto it = keys.find(key);
    if (it == keys.end()) {
      keys.emplace(key, entry);
      ++adopted;
      if (on_key) on_key(key, entry);
    } else if (Supersedes(entry, it->second)) {
      it->second = entry;
      ++adopted;
      if (on_key) on_key(key, entry);
    }
  }
  return adopted;
}

bool GossipDigest::operator==(const GossipDigest& other) const {
  if (shards.size() != other.shards.size()) return false;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].epoch != other.shards[i].epoch ||
        shards[i].health != other.shards[i].health) {
      return false;
    }
  }
  if (keys.size() != other.keys.size()) return false;
  auto a = keys.begin();
  auto b = other.keys.begin();
  for (; a != keys.end(); ++a, ++b) {
    if (a->first != b->first || a->second.epoch != b->second.epoch ||
        a->second.deleted != b->second.deleted) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Wire form.

std::string GossipDigest::Serialize() const {
  std::string out = "XSQGOSSIP v1 shards=" + std::to_string(shards.size());
  out.push_back('\n');
  for (size_t i = 0; i < shards.size(); ++i) {
    out += "S " + std::to_string(i) + " " + std::to_string(shards[i].epoch) +
           " " + ShardHealthName(shards[i].health);
    out.push_back('\n');
  }
  for (const auto& [key, entry] : keys) {
    // RECORD names are arbitrary bytes; escape them so a newline or
    // backslash in a key cannot forge or split digest lines.
    out += "K " + std::to_string(entry.epoch) + " " +
           (entry.deleted ? "1" : "0") + " " + LineEscape(key);
    out.push_back('\n');
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "CRC %08x", Crc32c(out));
  out += crc;
  out.push_back('\n');
  return out;
}

Result<GossipDigest> GossipDigest::Parse(std::string_view text) {
  // The CRC line covers every byte before it.
  size_t crc_pos = text.rfind("CRC ");
  if (crc_pos == std::string_view::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return Status::DataCorruption("gossip digest missing CRC trailer");
  }
  std::string_view crc_text = text.substr(crc_pos + 4);
  while (!crc_text.empty() &&
         (crc_text.back() == '\n' || crc_text.back() == '\r')) {
    crc_text.remove_suffix(1);
  }
  if (crc_text.size() != 8) {
    return Status::DataCorruption("gossip digest bad CRC field");
  }
  uint32_t stated = 0;
  for (char c : crc_text) {
    uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return Status::DataCorruption("gossip digest bad CRC field");
    }
    stated = (stated << 4) | nibble;
  }
  if (Crc32c(text.substr(0, crc_pos)) != stated) {
    return Status::DataCorruption("gossip digest CRC mismatch");
  }

  GossipDigest digest;
  std::string_view body = text.substr(0, crc_pos);
  size_t shard_count = 0;
  bool seen_header = false;
  for (std::string_view line : Split(body, '\n')) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (!seen_header) {
      std::string_view rest = line;
      std::string_view magic = TakeWord(&rest);
      std::string_view version = TakeWord(&rest);
      std::string_view shards_field = TakeWord(&rest);
      if (magic != "XSQGOSSIP" || version != "v1" ||
          shards_field.rfind("shards=", 0) != 0) {
        return Status::ParseError("gossip digest bad header");
      }
      std::optional<uint64_t> n = ParseUint64(shards_field.substr(7));
      if (!n.has_value() || *n > 4096) {
        return Status::ParseError("gossip digest bad shard count");
      }
      shard_count = static_cast<size_t>(*n);
      digest.shards.resize(shard_count);
      seen_header = true;
      continue;
    }
    std::string_view rest = line;
    std::string_view tag = TakeWord(&rest);
    if (tag == "S") {
      std::optional<uint64_t> index = ParseUint64(TakeWord(&rest));
      std::optional<uint64_t> epoch = ParseUint64(TakeWord(&rest));
      ShardHealth health;
      if (!index.has_value() || *index >= shard_count ||
          !epoch.has_value() ||
          !ParseHealthName(TakeWord(&rest), &health) || !rest.empty()) {
        return Status::ParseError("gossip digest bad shard line");
      }
      digest.shards[static_cast<size_t>(*index)] = ShardEntry{*epoch, health};
    } else if (tag == "K") {
      std::optional<uint64_t> epoch = ParseUint64(TakeWord(&rest));
      std::string_view deleted = TakeWord(&rest);
      if (!epoch.has_value() || (deleted != "0" && deleted != "1") ||
          rest.empty()) {
        return Status::ParseError("gossip digest bad key line");
      }
      digest.keys[LineUnescape(rest)] = KeyEntry{*epoch, deleted == "1"};
    } else {
      return Status::ParseError("gossip digest unknown line tag '" +
                                std::string(tag) + "'");
    }
  }
  if (!seen_header) return Status::ParseError("gossip digest empty");
  return digest;
}

std::string GossipDigest::EncodeWire() const { return LineEscape(Serialize()); }

Result<GossipDigest> GossipDigest::DecodeWire(std::string_view token) {
  return Parse(LineUnescape(token));
}

// ---------------------------------------------------------------------
// GossipAgent.

GossipAgent::GossipAgent(std::vector<Backend*> backends,
                         Replicator* replicator, GossipConfig config)
    : backends_(std::move(backends)),
      replicator_(replicator),
      config_(std::move(config)),
      jitter_state_(config_.jitter_seed) {
  digest_.shards.resize(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    digest_.shards[i] = {0, backends_[i]->health()};
  }
  for (const ShardAddress& peer : config_.peers) AddPeer(peer);
}

GossipAgent::~GossipAgent() { Stop(); }

void GossipAgent::Start() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void GossipAgent::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    stopping_ = true;
  }
  loop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void GossipAgent::AddPeer(const ShardAddress& peer) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  auto entry = std::make_unique<Peer>();
  entry->address = peer;
  peers_.push_back(std::move(entry));
}

size_t GossipAgent::peer_count() const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  return peers_.size();
}

void GossipAgent::LocalObservation(size_t shard, ShardHealth health) {
  if (shard >= backends_.size()) return;
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    GossipDigest::ShardEntry& entry = digest_.shards[shard];
    if (entry.health != health) {
      // Local evidence out-epochs everything this router has seen for
      // the shard, so the observation wins every merge until a peer
      // observes something newer.
      entry.epoch += 1;
      entry.health = health;
    }
  }
  backends_[shard]->set_health(health);
}

void GossipAgent::NoteKey(std::string_view key) {
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    auto it = digest_.keys.find(std::string(key));
    if (it == digest_.keys.end()) {
      digest_.keys.emplace(std::string(key), GossipDigest::KeyEntry{1, false});
    } else if (it->second.deleted) {
      it->second.epoch += 1;
      it->second.deleted = false;
    }
    // A live re-RECORD is a no-op: the entry already says what the
    // cluster needs to know, and skipping the bump keeps digests stable.
  }
  // Keep the replication plane's key universe in step with the digest
  // (set insert is idempotent, so the router's own rf>=2 call is fine).
  replicator_->NoteKey(key);
}

void GossipAgent::ForgetKey(std::string_view key) {
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    auto it = digest_.keys.find(std::string(key));
    if (it == digest_.keys.end()) {
      // Tombstone an unknown key too: a peer may hold a live entry this
      // router never saw, and the eviction must still propagate.
      digest_.keys.emplace(std::string(key), GossipDigest::KeyEntry{1, true});
    } else if (!it->second.deleted) {
      it->second.epoch += 1;
      it->second.deleted = true;
    }
  }
  replicator_->ForgetKey(key);
}

size_t GossipAgent::MergeAndApply(const GossipDigest& remote) {
  size_t adopted = 0;
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    adopted = digest_.MergeFrom(
        remote,
        [this](size_t shard, const GossipDigest::ShardEntry& entry) {
          // Adopted remote observation: route by it until the local
          // prober learns something newer (which bumps the epoch).
          if (shard < backends_.size()) {
            backends_[shard]->set_health(entry.health);
          }
        },
        [this](const std::string& key, const GossipDigest::KeyEntry& entry) {
          // Keep the replication plane's key universe in step so a
          // surviving router repairs (and sweeps) keys it never saw
          // RECORDed.
          if (entry.deleted) {
            replicator_->ForgetKey(key);
          } else {
            replicator_->NoteKey(key);
          }
        });
  }
  if (adopted > 0) merges_.fetch_add(adopted, std::memory_order_relaxed);
  return adopted;
}

Result<GossipAgent::ExchangeReply> GossipAgent::HandleExchange(
    std::string_view wire_token) {
  XSQ_ASSIGN_OR_RETURN(GossipDigest remote,
                       GossipDigest::DecodeWire(wire_token));
  if (remote.shards.size() != backends_.size()) {
    return Status::InvalidArgument(
        "gossip topology mismatch: peer has " +
        std::to_string(remote.shards.size()) + " shards, this router has " +
        std::to_string(backends_.size()));
  }
  ExchangeReply reply;
  reply.adopted = MergeAndApply(remote);
  reply.wire = Snapshot().EncodeWire();
  return reply;
}

void GossipAgent::ExchangeNow() {
  // One serialized push-pull round over a stable snapshot of the
  // roster. Network I/O happens without digest_mu_ held; replies merge
  // as they arrive.
  std::lock_guard<std::mutex> round(round_mu_);
  size_t roster = peer_count();
  for (size_t i = 0; i < roster; ++i) {
    Peer* peer = nullptr;
    {
      std::lock_guard<std::mutex> lock(peers_mu_);
      if (i >= peers_.size()) break;
      peer = peers_[i].get();
      if (peer->client == nullptr) {
        net::ClientConfig client_config;
        client_config.host = peer->address.host;
        client_config.port = peer->address.port;
        client_config.connect_timeout_ms = config_.connect_timeout_ms;
        client_config.request_timeout_ms = config_.request_timeout_ms;
        client_config.max_retries = 0;  // the next round is the retry
        peer->client = std::make_unique<net::Client>(client_config);
      }
    }
    // round_mu_ serializes all use of peer->client beyond this point.
    std::string wire = Snapshot().EncodeWire();
    Result<net::Response> response = peer->client->Request("GOSSIP " + wire);
    bool exchanged = false;
    if (response.ok() && response->status.ok()) {
      for (const std::string& line : response->lines) {
        if (line.rfind("DIGEST ", 0) != 0) continue;
        Result<GossipDigest> remote =
            GossipDigest::DecodeWire(std::string_view(line).substr(7));
        if (remote.ok() && remote->shards.size() == backends_.size()) {
          MergeAndApply(*remote);
          exchanged = true;
        }
        break;
      }
    }
    std::lock_guard<std::mutex> lock(peers_mu_);
    if (exchanged) {
      peer->consecutive_failures = 0;
      if (peer->down) {
        peer->down = false;
        peers_down_.fetch_sub(1, std::memory_order_relaxed);
      }
    } else {
      peer->client->Close();
      if (++peer->consecutive_failures >= config_.peer_fail_threshold &&
          !peer->down) {
        peer->down = true;
        peer_down_.fetch_add(1, std::memory_order_relaxed);
        peers_down_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  rounds_.fetch_add(1, std::memory_order_relaxed);
}

void GossipAgent::Loop() {
  for (;;) {
    uint64_t wait_ms;
    {
      std::unique_lock<std::mutex> lock(loop_mu_);
      wait_ms = net::JitterIntervalMs(config_.interval_ms, &jitter_state_);
      loop_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                        [this] { return stopping_; });
      if (stopping_) return;
    }
    ExchangeNow();
  }
}

GossipDigest GossipAgent::Snapshot() const {
  std::lock_guard<std::mutex> lock(digest_mu_);
  return digest_;
}

GossipAgent::Counters GossipAgent::counters() const {
  Counters out;
  out.rounds = rounds_.load(std::memory_order_relaxed);
  out.merges = merges_.load(std::memory_order_relaxed);
  out.peer_down = peer_down_.load(std::memory_order_relaxed);
  out.peers_down = peers_down_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace xsq::cluster
