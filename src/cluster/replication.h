// Replicator: the router's asynchronous replication plane.
//
// With replication factor rf >= 2, every document tape lives on the
// key's primary ring owner AND the next rf-1 distinct live owners met
// walking the ring clockwise (ShardMap::Owners). The walk order is the
// failover order: when the primary dies, Owner() under the new mask is
// exactly the first replica, so reads keep landing on a shard that
// already holds the tape — no client re-record, byte-identical replay.
//
// Two kinds of jobs flow through one bounded queue:
//
//   fanout   RECORD accepted by the primary -> replay the full RECORD
//            line to each remaining owner. The queue entry carries the
//            wire line itself, so a fanout enqueued before the primary
//            died still delivers the bytes to the surviving replica —
//            the queue doubles as the durability buffer for the
//            ack-to-replica window.
//   repair   anti-entropy found an owner missing the tape -> send it
//            "REPLPULL <key> <host>:<port>" naming a live holder; the
//            target pulls the tape shard-to-shard and CRC-verifies it
//            on ingest.
//
// Worker threads drain the queue with per-target in-flight caps (a
// slow shard cannot monopolize the workers), bounded retries with
// exponential backoff, and a failpoint ("cluster.repl.fail") at the
// send site so fault-injection tests can exercise the retry path.
// Jobs are deduplicated per (key, target) while queued; a re-enqueue
// of a queued pair replaces its wire line, so a re-RECORD supersedes
// the stale bytes instead of racing them.
//
// Anti-entropy (SweepNow): gather every live shard's REPLSTATUS
// inventory (Inventory), compute each document's owner set under the
// current liveness mask, and enqueue a repair for every owner that is
// missing the tape, sourcing from a live holder. The inventories are
// the cluster's only record of which documents exist, so a router
// that never saw a RECORD (a restart, or a peer's client) repairs
// exactly as the router that took it. The router triggers a sweep
// (RequestSweep) after every health-probe pass that changed the
// liveness mask.
//
// Determinism hooks for tests and benches: construct with
// start_workers=false to freeze the queue (jobs accumulate, nothing
// sends), Start() to release it, SweepNow() for a synchronous sweep,
// WaitIdle() to block until the plane has fully drained.
#ifndef XSQ_CLUSTER_REPLICATION_H_
#define XSQ_CLUSTER_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/shard_map.h"
#include "common/status.h"

namespace xsq::cluster {

struct ReplicationConfig {
  // Copies of every tape, primary included. 1 = replication off: the
  // router behaves byte-for-byte like the pre-replication tier.
  size_t factor = 1;
  // Send attempts per job before it is dropped (counted failed).
  int max_attempts = 4;
  // Base retry backoff; doubles per attempt.
  uint64_t retry_backoff_ms = 25;
  // Start worker + sweep threads immediately. Tests freeze the fanout
  // queue with false and release it later with Start().
  bool start_workers = true;
};

class Replicator {
 public:
  // Queued jobs beyond this are dropped (counted failed); the sweep
  // re-detects and re-enqueues what mattered.
  static constexpr size_t kMaxQueue = 4096;
  // Concurrent sends per target shard, so one slow shard cannot hold
  // every worker.
  static constexpr size_t kMaxInflightPerShard = 2;
  // Sender threads: each send is one network round trip, not CPU.
  static constexpr size_t kWorkerThreads = 2;

  // `map` and `backends` outlive the replicator (both owned by the
  // Router that owns this).
  Replicator(const ShardMap* map, std::vector<Backend*> backends,
             ReplicationConfig config);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  void Start();
  void Stop();

  // --- inventory ------------------------------------------------------
  // Which shards hold which documents: one REPLSTATUS to each live
  // shard, keyed by document name, each value indexed by shard. A shard
  // that is dead or does not answer holds nothing, so every name has at
  // least one holder.
  using Holders = std::map<std::string, std::vector<bool>>;
  Holders Inventory() const;

  // --- jobs -----------------------------------------------------------
  // Replay `record_line` (a full "RECORD <key> <bytes>" wire line) to
  // shard `target`.
  void EnqueueFanout(std::string_view key, size_t target,
                     std::string_view record_line);
  // Tell shard `target` to pull `key`'s tape from `source`.
  void EnqueueRepair(std::string_view key, size_t target,
                     const net::Endpoint& source);

  // --- anti-entropy ---------------------------------------------------
  // Asynchronous: the sweep thread runs SweepNow soon. Cheap enough to
  // call from the health prober's pass callback.
  void RequestSweep();
  // One synchronous sweep pass (see header comment). Safe from any
  // thread; serialized with the sweep thread.
  void SweepNow();

  // Blocks until the queue is empty, nothing is in flight, and no
  // sweep is pending or running. False on timeout.
  bool WaitIdle(uint64_t timeout_ms = 10000);

  struct Counters {
    uint64_t pending = 0;   // queued + in flight right now
    uint64_t repaired = 0;  // jobs delivered (fanouts + repairs)
    uint64_t failed = 0;    // jobs dropped after max_attempts / overflow
    uint64_t fanouts = 0;   // fanout jobs enqueued
    uint64_t sweeps = 0;    // anti-entropy passes completed
  };
  Counters counters() const;

  size_t factor() const { return config_.factor; }

 private:
  struct Job {
    std::string key;
    size_t target = 0;
    std::string line;  // the wire line to send to `target`
    int attempts = 0;
    std::chrono::steady_clock::time_point due;
  };

  void EnqueueJob(std::string_view key, size_t target, std::string line);
  // True when the job's reply was "OK ..." (failpoint and transport
  // failures and ERR replies all count as failures and retry).
  bool SendJob(const Job& job);
  // The sweep body (serialized by sweep_serial_mu_; no mu_ held).
  void SweepPass();
  void WorkerLoop();
  void SweepLoop();
  bool IdleLocked() const;

  const ShardMap* const map_;
  const std::vector<Backend*> backends_;
  const ReplicationConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // workers: job became available
  std::condition_variable idle_cv_;  // WaitIdle waiters
  std::deque<Job> queue_;
  std::vector<size_t> inflight_;  // per target shard
  size_t inflight_total_ = 0;
  bool stopping_ = false;
  bool sweep_requested_ = false;
  int active_sweeps_ = 0;

  std::condition_variable sweep_cv_;
  std::mutex sweep_serial_mu_;  // serializes SweepNow passes

  std::atomic<uint64_t> repaired_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> fanouts_{0};
  std::atomic<uint64_t> sweeps_{0};

  std::vector<std::thread> workers_;
  std::thread sweep_thread_;
};

}  // namespace xsq::cluster

#endif  // XSQ_CLUSTER_REPLICATION_H_
