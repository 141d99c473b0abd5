#include "cluster/backend_pool.h"

namespace xsq::cluster {

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kServing:
      return "serving";
    case ShardHealth::kShedding:
      return "shedding";
    case ShardHealth::kDraining:
      return "draining";
    case ShardHealth::kDead:
      return "dead";
  }
  return "unknown";
}

Backend::Backend(net::Endpoint address, BackendConfig config,
                 obs::Histogram* latency_us)
    : address_(std::move(address)),
      config_(config),
      latency_us_(latency_us) {}

net::ClientConfig Backend::MakeClientConfig() const {
  net::ClientConfig client;
  client.endpoints = {address_};
  client.connect_timeout_ms = config_.connect_timeout_ms;
  client.request_timeout_ms = config_.request_timeout_ms;
  client.max_retries = config_.client_max_retries;
  return client;
}

std::unique_ptr<net::Client> Backend::AcquireLocked(
    std::unique_lock<std::mutex>* lock, Status* error) {
  // Breaker gate. While open, fail fast; at cooldown expiry admit one
  // half-open probe and keep rejecting the rest until it reports back.
  auto now = std::chrono::steady_clock::now();
  if (consecutive_failures_ >= config_.breaker_threshold) {
    if (now < open_until_ || half_open_probe_) {
      breaker_rejects_.fetch_add(1, std::memory_order_relaxed);
      *error = Status::ResourceExhausted(
          "circuit open to shard " + address_.ToString() + "; cooling down");
      return nullptr;
    }
    half_open_probe_ = true;
  }
  if (!idle_.empty()) {
    std::unique_ptr<net::Client> client = std::move(idle_.back());
    idle_.pop_back();
    return client;
  }
  if (pooled_total_ < config_.max_pool_conns) {
    ++pooled_total_;
    net::ClientConfig cc = MakeClientConfig();
    cc.retry_seed = config_.retry_seed + ++lease_seq_;
    return std::make_unique<net::Client>(cc);
  }
  // Pool exhausted: wait for a peer to return a client, bounded by the
  // request deadline so a stuck shard cannot strand callers here.
  bool got = pool_cv_.wait_for(
      *lock, std::chrono::milliseconds(config_.request_timeout_ms),
      [this] { return !idle_.empty(); });
  if (!got) {
    *error = Status::ResourceExhausted(
        "backend pool exhausted for shard " + address_.ToString());
    return nullptr;
  }
  std::unique_ptr<net::Client> client = std::move(idle_.back());
  idle_.pop_back();
  return client;
}

void Backend::ReleasePooled(std::unique_ptr<net::Client> client) {
  std::lock_guard<std::mutex> lock(mu_);
  if (client != nullptr && client->connected()) {
    idle_.push_back(std::move(client));
  } else {
    // Broken connection: drop it; the next Acquire recreates a slot.
    --pooled_total_;
  }
  pool_cv_.notify_one();
}

void Backend::RecordOutcome(bool transport_ok) {
  std::lock_guard<std::mutex> lock(mu_);
  half_open_probe_ = false;
  if (transport_ok) {
    consecutive_failures_ = 0;
    return;
  }
  ++consecutive_failures_;
  if (consecutive_failures_ == config_.breaker_threshold) {
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
  }
  if (consecutive_failures_ >= config_.breaker_threshold) {
    open_until_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(config_.breaker_cooldown_ms);
  }
}

Result<net::Response> Backend::Request(std::string_view line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<net::Client> client;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Status error = Status::OK();
    client = AcquireLocked(&lock, &error);
    if (client == nullptr) return error;
  }
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  auto begin = std::chrono::steady_clock::now();
  Result<net::Response> result = client->Request(line);
  auto end = std::chrono::steady_clock::now();
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  if (latency_us_ != nullptr) {
    latency_us_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
            .count()));
  }
  bool transport_ok = result.ok();
  if (!transport_ok) failures_.fetch_add(1, std::memory_order_relaxed);
  RecordOutcome(transport_ok);
  ReleasePooled(std::move(client));
  return result;
}

Result<std::unique_ptr<net::Client>> Backend::LeaseExclusive() {
  net::ClientConfig cc = MakeClientConfig();
  // Session conversations do the router's bidding verb by verb; the
  // router decides retries, the client must not improvise.
  cc.max_retries = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cc.retry_seed = config_.retry_seed + ++lease_seq_;
  }
  auto client = std::make_unique<net::Client>(cc);
  XSQ_RETURN_IF_ERROR(client->Connect());
  return client;
}

Backend::Counters Backend::counters() const {
  Counters out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.failures = failures_.load(std::memory_order_relaxed);
  out.breaker_rejects = breaker_rejects_.load(std::memory_order_relaxed);
  out.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  return out;
}

bool Backend::circuit_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_ >= config_.breaker_threshold &&
         std::chrono::steady_clock::now() < open_until_;
}

}  // namespace xsq::cluster
