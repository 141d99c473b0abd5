#include "cluster/health.h"

#include <chrono>

#include "net/client.h"

namespace xsq::cluster {

HealthProber::HealthProber(std::vector<Backend*> backends, ProbeConfig config)
    : backends_(std::move(backends)),
      config_(config),
      consecutive_failures_(backends_.size(), 0),
      consecutive_successes_(backends_.size(), 0),
      jitter_state_(kJitterSeed),
      last_metrics_(backends_.size()) {}

HealthProber::~HealthProber() { Stop(); }

void HealthProber::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void HealthProber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HealthProber::Apply(size_t i, ShardHealth health) {
  if (apply_) {
    apply_(i, health);
  } else {
    backends_[i]->set_health(health);
  }
}

void HealthProber::ProbeShard(size_t i) {
  Backend* backend = backends_[i];
  Result<net::HttpResponse> probe =
      net::HttpGet(backend->address(), "/healthz", kTimeoutMs);
  if (!probe.ok()) {
    consecutive_successes_[i] = 0;
    if (++consecutive_failures_[i] >= config_.fail_threshold) {
      Apply(i, ShardHealth::kDead);
    }
    return;
  }
  consecutive_failures_[i] = 0;
  ShardHealth observed;
  if (probe->code == 200) {
    observed = ShardHealth::kServing;
  } else if (probe->body.rfind("shedding", 0) == 0) {
    observed = ShardHealth::kShedding;
  } else if (probe->body.rfind("draining", 0) == 0) {
    observed = ShardHealth::kDraining;
  } else {
    // Answered but unwell in a way we do not recognize; treat like
    // shedding — reachable, avoid for new work.
    observed = ShardHealth::kShedding;
  }
  if (backend->health() == ShardHealth::kDead &&
      ++consecutive_successes_[i] < config_.rise_threshold) {
    // Anti-flap hysteresis: a dead shard must answer rise_threshold
    // probes in a row before its keys remap back. Until then the ring
    // stays stable on the failover owner.
    return;
  }
  consecutive_successes_[i] = 0;
  Apply(i, observed);
  Result<net::HttpResponse> metrics =
      net::HttpGet(backend->address(), "/metrics", kTimeoutMs);
  if (metrics.ok() && metrics->code == 200) {
    std::lock_guard<std::mutex> lock(mu_);
    last_metrics_[i] = std::move(metrics->body);
  }
}

void HealthProber::ProbeNow() {
  // Serialized with the background loop so a pass is a pass: health
  // state after ProbeNow reflects one coherent sweep.
  std::lock_guard<std::mutex> probe_lock(probe_mu_);
  for (size_t i = 0; i < backends_.size(); ++i) ProbeShard(i);
  std::vector<bool> alive(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    alive[i] = backends_[i]->alive();
  }
  bool changed = alive != last_alive_;  // first pass: empty != full
  last_alive_ = std::move(alive);
  passes_.fetch_add(1, std::memory_order_relaxed);
  if (on_pass_) on_pass_(changed);
}

void HealthProber::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // ±20% jitter per period: a fleet of routers sharing one shard
      // set drifts apart instead of probing in synchronized bursts.
      uint64_t wait_ms =
          net::JitterIntervalMs(config_.interval_ms, &jitter_state_);
      cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                   [this] { return stopping_; });
      if (stopping_) return;
    }
    ProbeNow();
  }
}

std::string HealthProber::last_metrics(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return i < last_metrics_.size() ? last_metrics_[i] : std::string();
}

}  // namespace xsq::cluster
