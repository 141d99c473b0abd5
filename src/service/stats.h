// ServiceStats: the observability surface of the query service.
//
// Counters are lock-free atomics updated from worker threads and the
// client-facing API; Snapshot() assembles a consistent-enough plain
// struct with relaxed loads, so reading statistics never stops the
// world. `engine_buffered_bytes` is a gauge (sessions apply deltas as
// their engines buffer and release items) — it is both a stat and the
// input to the service's global memory admission check.
#ifndef XSQ_SERVICE_STATS_H_
#define XSQ_SERVICE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/exposition.h"

// Every service counter, declared once. A row X(field, kind, merge)
// makes the StatsSnapshot field `field` (also its STATS name), its
// ServiceStats slot Stat::field, the METRICS scalar xsq_<field> of
// exposition type obs::ScalarKind::kind, and the rule by which a
// router folds shard values into the cluster figure: kSum for
// counters and for gauges whose cluster-wide value is the total, kMax
// for per-process high-water marks. STATS and METRICS list the rows in
// this order. Plan- and document-cache rows and sessions_active are
// filled by QueryService::stats() from the caches and the session
// table; the network rows are recorded by net::Server.
#define XSQ_SERVICE_STATS(X)                                                  \
  X(sessions_opened, kCounter, kSum)                                          \
  X(sessions_rejected, kCounter, kSum)  /* admission control said no */       \
  X(sessions_active, kGauge, kSum)                                            \
  X(chunks_processed, kCounter, kSum)                                         \
  X(bytes_consumed, kCounter, kSum)                                           \
  X(items_emitted, kCounter, kSum)                                            \
  X(pushes_rejected, kCounter, kSum)  /* backpressure (queue or budget) */    \
  X(queue_high_water, kGauge, kMax)  /* most chunks queued on one session */  \
  X(engine_buffered_bytes, kGauge, kSum)  /* live engine buffers, summed */   \
  X(plan_cache_hits, kCounter, kSum)                                          \
  X(plan_cache_misses, kCounter, kSum)                                        \
  X(plan_cache_evictions, kCounter, kSum)                                     \
  X(doc_cache_hits, kCounter, kSum)                                           \
  X(doc_cache_misses, kCounter, kSum)                                         \
  X(doc_cache_evictions, kCounter, kSum)  /* LRU budget pressure */           \
  X(doc_cache_explicit_evictions, kCounter, kSum)  /* caller EVICTs */        \
  X(doc_cache_documents, kGauge, kSum)  /* tapes resident */                  \
  X(doc_cache_bytes, kGauge, kSum)  /* their summed memory_bytes */           \
  X(tape_replays, kCounter, kSum)  /* documents served from tape */           \
  X(tape_events_replayed, kCounter, kSum)                                     \
  /* Failure modes: caller cancellation, deadline, a ParserLimits         */  \
  /* rejection, tapes failing integrity checks.                           */  \
  X(cancelled, kCounter, kSum)                                                \
  X(deadline_exceeded, kCounter, kSum)                                        \
  X(limit_rejected, kCounter, kSum)                                           \
  X(tape_corrupt, kCounter, kSum)                                             \
  /* Network front end, recorded by net::Server.                          */  \
  X(connections_accepted, kCounter, kSum)                                     \
  X(connections_shed, kCounter, kSum)  /* accept-side load shedding */        \
  X(disconnect_cancels, kCounter, kSum)  /* sessions cancelled on loss */     \
  X(net_idle_closed, kCounter, kSum)  /* idle / half-open peers reaped */     \
  X(net_overrun_closed, kCounter, kSum)  /* input/output bound hit */         \
  /* Pub/sub (standing queries).                                          */  \
  X(subscriptions_active, kGauge, kSum)                                       \
  X(publishes, kCounter, kSum)  /* documents published, one parse each */     \
  X(events_delivered, kCounter, kSum)  /* EVENT frames handed to sinks */     \
  X(fanout_shed, kCounter, kSum)  /* frames dropped on slow subscribers */    \
  /* Replication (shard-to-shard tape transfer, REPLPULL).                */  \
  X(repl_serves, kCounter, kSum)  /* tapes streamed out to a peer shard */    \
  X(repl_ingests, kCounter, kSum)  /* tapes installed from a peer shard */    \
  X(repl_ingest_corrupt, kCounter, kSum)  /* pulled tapes failing checks */

namespace xsq::service {

// A point-in-time copy of every counter, safe to read and format at
// leisure. Plan-cache counters are filled in by QueryService::stats()
// from the PlanCache; they are zero in snapshots taken from a bare
// ServiceStats.
struct StatsSnapshot {
#define XSQ_STATS_FIELD(field, kind, merge) uint64_t field = 0;
  XSQ_SERVICE_STATS(XSQ_STATS_FIELD)
#undef XSQ_STATS_FIELD

  // One "name value" pair per line, stable names; the xsqd STATS
  // command prints exactly this.
  std::string ToString() const;

  // The inverse of ToString: parses "name value" lines back into a
  // snapshot, so a router can decode a shard's STATS reply. Fields
  // absent from the text stay zero (an older shard); an unknown name
  // or a malformed line is a ParseError. Round trip:
  // Parse(s.ToString())->ToString() == s.ToString().
  static Result<StatsSnapshot> Parse(std::string_view text);

  // Folds `other` into this snapshot (cluster roll-up), each field by
  // its row's merge rule.
  void Merge(const StatsSnapshot& other);

  // Adds the METRICS scalars to `doc`: xsq_obs_enabled (always 1: the
  // per-phase hooks are always compiled in), then one xsq_<field>
  // series per row.
  void AppendMetrics(obs::Exposition* doc) const;
};

// How a router folds the METRICS scalar `name` across shards: the
// merge rule of its row (xsq_obs_enabled maxes); kSum for any other
// name.
obs::ScalarMerge MetricMergeRule(std::string_view name);

// The row index of each counter, for ServiceStats.
enum class Stat : size_t {
#define XSQ_STAT_INDEX(field, kind, merge) field,
  XSQ_SERVICE_STATS(XSQ_STAT_INDEX)
#undef XSQ_STAT_INDEX
};

class ServiceStats {
 public:
  // Counts `n` more events; a gauge's `n` may be negative.
  void Add(Stat stat, int64_t n = 1) {
    slot(stat).fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  }
  // High-water marks: raises the value to at least `value`.
  void RaiseTo(Stat stat, uint64_t value) {
    std::atomic<uint64_t>& cell = slot(stat);
    uint64_t seen = cell.load(std::memory_order_relaxed);
    while (value > seen && !cell.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  // The current value; a gauge adjusted below zero reads 0.
  uint64_t Get(Stat stat) const {
    int64_t value = static_cast<int64_t>(
        values_[static_cast<size_t>(stat)].load(std::memory_order_relaxed));
    return value > 0 ? static_cast<uint64_t>(value) : 0;
  }

  StatsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t>& slot(Stat stat) {
    return values_[static_cast<size_t>(stat)];
  }

#define XSQ_STAT_COUNT(field, kind, merge) +1
  std::array<std::atomic<uint64_t>, 0 XSQ_SERVICE_STATS(XSQ_STAT_COUNT)>
      values_{};
#undef XSQ_STAT_COUNT
};

}  // namespace xsq::service

#endif  // XSQ_SERVICE_STATS_H_
