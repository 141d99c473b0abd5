// HealthProber: active health checking for the shard roster.
//
// A background thread polls every shard's GET /healthz (net::HttpGet,
// over the same socket helpers as net::Client) on a jittered
// cadence (±20% of interval_ms, so several routers probing the same
// shards decorrelate instead of storming them in lockstep) and flips
// the Backend health flag the router routes by:
//
//   200 "ok"        -> kServing    full member of the ring
//   503 "shedding"  -> kShedding   reachable but at capacity
//   503 "draining"  -> kDraining   shutting down, listener closed
//   probe failure   -> kDead after fail_threshold consecutive misses
//
// The shard serves these probes even while load-shedding protocol
// connections (net::Server defers the shed decision past the HTTP
// sniff precisely so this prober can tell "busy" from "down"), so a
// failed probe really means unreachable, not merely saturated.
// Resurrection is hysteretic: a dead shard rejoins the ring only after
// rise_threshold consecutive good probes (mirroring fail_threshold on
// the way down), so a flapping shard cannot thrash the ring — its keys
// stay parked on the stable failover owner until the shard proves
// itself. The default rise_threshold of 1 preserves the historical
// one-good-probe heal.
//
// Ring rebalancing is implicit and non-disruptive: health lives in an
// atomic on the Backend, ownership is computed per request against the
// current mask (ShardMap::Owner), and nothing in flight is touched
// when the mask changes. A dead shard's keys remap within one probe
// interval (plus the threshold's worth of misses); every other
// shard's keys never move.
//
// The prober also fetches GET /metrics from reachable shards and
// caches the last good exposition text per shard, giving the router's
// merged cluster view a stale-but-present fallback for shards that
// drop out mid-scrape.
#ifndef XSQ_CLUSTER_HEALTH_H_
#define XSQ_CLUSTER_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/backend_pool.h"
#include "common/status.h"

namespace xsq::cluster {

struct ProbeConfig {
  uint64_t interval_ms = 500;
  // Consecutive probe failures before a shard is marked dead.
  int fail_threshold = 3;
  // Consecutive probe successes before a DEAD shard rejoins the ring
  // (anti-flap hysteresis). 1 = the historical instant resurrection.
  // Health transitions among the reachable states (serving/shedding/
  // draining) stay immediate — hysteresis only guards the dead->alive
  // edge that remaps keys.
  int rise_threshold = 1;
};

class HealthProber {
 public:
  // Deadline of one /healthz or /metrics GET; a shard slower than
  // this counts as a failed probe.
  static constexpr uint64_t kTimeoutMs = 1000;
  // Seed of the ±20% cadence jitter (net::JitterIntervalMs); fixed so
  // runs are repeatable.
  static constexpr uint64_t kJitterSeed = 0x5851f42d4c957f2dull;

  // Backends outlive the prober; their health flags are its output.
  HealthProber(std::vector<Backend*> backends, ProbeConfig config);
  ~HealthProber();

  HealthProber(const HealthProber&) = delete;
  HealthProber& operator=(const HealthProber&) = delete;

  void Start();
  void Stop();

  // One synchronous pass over every shard, callable with or without
  // the background thread running. Tests and benches use this to make
  // health transitions deterministic instead of sleeping.
  void ProbeNow();

  // Completed probe passes (background + ProbeNow).
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }

  // Installs a callback invoked at the end of every probe pass with
  // whether the pass changed any shard's alive/dead bit (the first
  // pass always reports a change). Called from the probing thread with
  // the pass lock held — keep it cheap (set a flag, poke a cv). Must
  // be installed before Start().
  void set_on_pass(std::function<void(bool mask_changed)> on_pass) {
    on_pass_ = std::move(on_pass);
  }

  // Redirects health writes: when installed, every resolved probe
  // observation goes through `apply` instead of straight to
  // Backend::set_health. The gossip layer installs this so a local
  // transition bumps the shard's epoch before the flag flips (the
  // callback itself applies the health). Must be installed before
  // Start().
  void set_apply(std::function<void(size_t shard, ShardHealth health)> apply) {
    apply_ = std::move(apply);
  }

  // The last successfully scraped /metrics text of shard `i` (empty
  // until the first good scrape).
  std::string last_metrics(size_t i) const;

 private:
  void Loop();
  void ProbeShard(size_t i);
  void Apply(size_t i, ShardHealth health);

  const std::vector<Backend*> backends_;
  const ProbeConfig config_;

  std::vector<int> consecutive_failures_;   // probe thread only
  std::vector<int> consecutive_successes_;  // probe thread only
  std::vector<bool> last_alive_;            // guarded by probe_mu_
  std::function<void(bool)> on_pass_;       // set before Start()
  std::function<void(size_t, ShardHealth)> apply_;  // set before Start()
  SplitMix64 jitter_state_;                 // loop thread only

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::string> last_metrics_;  // guarded by mu_
  std::mutex probe_mu_;                    // serializes probe passes
  std::atomic<uint64_t> passes_{0};
  std::thread thread_;
};

}  // namespace xsq::cluster

#endif  // XSQ_CLUSTER_HEALTH_H_
