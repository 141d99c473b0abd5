#include "cluster/replication.h"

#include <algorithm>

#include "common/failpoints.h"

namespace xsq::cluster {

Replicator::Replicator(const ShardMap* map, std::vector<Backend*> backends,
                       ReplicationConfig config)
    : map_(map),
      backends_(std::move(backends)),
      config_(config),
      inflight_(backends_.size(), 0) {
  if (config_.start_workers && config_.factor >= 2) Start();
}

Replicator::~Replicator() { Stop(); }

void Replicator::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!workers_.empty()) return;  // already running
    stopping_ = false;
  }
  for (size_t i = 0; i < kWorkerThreads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  sweep_thread_ = std::thread([this] { SweepLoop(); });
}

void Replicator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  sweep_cv_.notify_all();
  idle_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (sweep_thread_.joinable()) sweep_thread_.join();
  // Under mu_: EnqueueJob reads workers_ there, from a sweep or from a
  // router handler thread.
  std::lock_guard<std::mutex> lock(mu_);
  workers_.clear();
}

void Replicator::EnqueueFanout(std::string_view key, size_t target,
                               std::string_view record_line) {
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  EnqueueJob(key, target, std::string(record_line));
}

void Replicator::EnqueueRepair(std::string_view key, size_t target,
                               const net::Endpoint& source) {
  EnqueueJob(key, target,
             "REPLPULL " + std::string(key) + " " + source.ToString());
}

void Replicator::EnqueueJob(std::string_view key, size_t target,
                            std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ && !workers_.empty()) return;
  // Dedupe while queued: a newer enqueue of the same (key, target)
  // replaces the waiting job's wire line, so a re-RECORD supersedes
  // stale bytes instead of delivering after them.
  for (Job& queued : queue_) {
    if (queued.key == key && queued.target == target) {
      queued.line = std::move(line);
      queued.attempts = 0;
      queued.due = std::chrono::steady_clock::now();
      cv_.notify_one();
      return;
    }
  }
  if (queue_.size() >= kMaxQueue) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Job job;
  job.key.assign(key);
  job.target = target;
  job.line = std::move(line);
  job.due = std::chrono::steady_clock::now();
  queue_.push_back(std::move(job));
  cv_.notify_one();
}

bool Replicator::SendJob(const Job& job) {
  XSQ_FAILPOINT("cluster.repl.fail", return false);
  Result<net::Response> response = backends_[job.target]->Request(job.line);
  return response.ok() && response->status.ok();
}

void Replicator::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;
    auto now = std::chrono::steady_clock::now();
    size_t idx = queue_.size();
    auto next_due = std::chrono::steady_clock::time_point::max();
    for (size_t i = 0; i < queue_.size(); ++i) {
      const Job& job = queue_[i];
      // The per-shard cap keeps one slow target from monopolizing the
      // workers; capped jobs re-dispatch when a send completes.
      if (inflight_[job.target] >= kMaxInflightPerShard) continue;
      if (job.due > now) {
        next_due = std::min(next_due, job.due);
        continue;
      }
      idx = i;
      break;
    }
    if (idx == queue_.size()) {
      if (next_due != std::chrono::steady_clock::time_point::max()) {
        cv_.wait_until(lock, next_due);
      } else {
        cv_.wait(lock);
      }
      continue;
    }
    Job job = std::move(queue_[idx]);
    queue_.erase(queue_.begin() + idx);
    ++inflight_[job.target];
    ++inflight_total_;
    lock.unlock();
    bool delivered = SendJob(job);
    lock.lock();
    --inflight_[job.target];
    --inflight_total_;
    if (delivered) {
      repaired_.fetch_add(1, std::memory_order_relaxed);
    } else if (++job.attempts >= config_.max_attempts || stopping_) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      uint64_t backoff = config_.retry_backoff_ms
                         << std::min(job.attempts - 1, 6);
      job.due = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(backoff);
      // A job enqueued for the same pair while this one was in flight
      // carries newer bytes; it supersedes the retry.
      bool superseded = false;
      for (const Job& queued : queue_) {
        if (queued.key == job.key && queued.target == job.target) {
          superseded = true;
          break;
        }
      }
      if (!superseded) queue_.push_back(std::move(job));
    }
    cv_.notify_all();  // an in-flight slot freed; capped jobs may go
    idle_cv_.notify_all();
  }
}

void Replicator::RequestSweep() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sweep_requested_ = true;
  }
  sweep_cv_.notify_one();
}

void Replicator::SweepLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    sweep_cv_.wait(lock, [this] { return stopping_ || sweep_requested_; });
    if (stopping_) return;
    sweep_requested_ = false;
    ++active_sweeps_;
    lock.unlock();
    SweepPass();
    lock.lock();
    --active_sweeps_;
    idle_cv_.notify_all();
  }
}

void Replicator::SweepNow() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sweep_requested_ = false;  // a manual pass satisfies a pending request
    ++active_sweeps_;
  }
  SweepPass();
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_sweeps_;
  }
  idle_cv_.notify_all();
}

Replicator::Holders Replicator::Inventory() const {
  const size_t n = backends_.size();
  Holders holders;
  for (size_t i = 0; i < n; ++i) {
    if (!backends_[i]->alive()) continue;
    Result<net::Response> response = backends_[i]->Request("REPLSTATUS");
    if (!response.ok() || !response->status.ok()) continue;
    for (const std::string& line : response->lines) {
      if (line.rfind("DOC ", 0) != 0) continue;
      size_t end = line.find(' ', 4);
      std::string name = line.substr(4, end - 4);
      if (name.empty()) continue;
      auto it = holders.try_emplace(std::move(name), n, false).first;
      it->second[i] = true;
    }
  }
  return holders;
}

void Replicator::SweepPass() {
  std::lock_guard<std::mutex> serial(sweep_serial_mu_);
  if (config_.factor <= 1) return;  // replication off: nothing to repair
  Holders holders = Inventory();
  std::vector<bool> alive(backends_.size());
  for (size_t i = 0; i < alive.size(); ++i) alive[i] = backends_[i]->alive();
  for (const auto& [key, held] : holders) {
    // Inventory lists only names some live shard answered for.
    auto source = static_cast<size_t>(
        std::find(held.begin(), held.end(), true) - held.begin());
    for (size_t owner : map_->Owners(key, config_.factor, alive)) {
      if (held[owner]) continue;
      EnqueueRepair(key, owner, backends_[source]->address());
    }
  }
  sweeps_.fetch_add(1, std::memory_order_relaxed);
}

bool Replicator::IdleLocked() const {
  return queue_.empty() && inflight_total_ == 0 && !sweep_requested_ &&
         active_sweeps_ == 0;
}

bool Replicator::WaitIdle(uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return IdleLocked(); });
}

Replicator::Counters Replicator::counters() const {
  Counters out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.pending = queue_.size() + inflight_total_;
  }
  out.repaired = repaired_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.fanouts = fanouts_.load(std::memory_order_relaxed);
  out.sweeps = sweeps_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace xsq::cluster
