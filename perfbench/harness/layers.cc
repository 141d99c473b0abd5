// The traced run: per-layer metrics, timed from outside each layer.
//
// Every call below is a public entry point of one module, made by the
// harness itself; nothing inside the program is instrumented. The run
// has four parts, in this order:
//
//   1. In-process layer timings on the workload's own documents and
//      queries: scan, SAX parse, plan compile, tape record/replay, the
//      engine's automaton/buffer split (a timing shim between a
//      harness-owned SaxParser and StreamingQuery::event_handler()),
//      and QueryService::Publish.
//   2. The workload's load loop (the one the untraced run uses), in
//      untraced and traced slices. Traced slices record spans; their
//      ratio gives trace.overhead.
//   3. The layer ladder: each sampled (document, query) pair is issued
//      at five depths in a random order per round,
//        d1 tape::Replay
//        d2 + StreamingQuery::event_handler()
//        d3 QueryService::RunCached + Drain (in process)
//        d4 RUNCACHED sent directly to the document's primary shard
//        d5 RUNCACHED through the router,
//      and a layer's self time is the difference of adjacent depths.
//      On cluster_read, three of the workload's connections keep its
//      load running meanwhile, and trace.coverage compares the ladder's
//      sum with the end-to-end time they saw for the same pairs.
//   4. Replication lag, pub/sub fan-out over TCP, and last, the
//      failover penalty: SIGKILL of a key's primary shard.
//
// stream has no router of its own, so it gets a ladder cluster holding
// its documents: every per-layer metric is measured on every workload's
// inputs.
#include <signal.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "cluster/shard_map.h"
#include "core/compiled_plan.h"
#include "core/streaming_query.h"
#include "net/line_protocol.h"
#include "procs.h"
#include "service/query_service.h"
#include "tape/recorder.h"
#include "tape/replayer.h"
#include "trace.h"
#include "workloads.h"
#include "xml/sax_parser.h"
#include "xml/scan.h"

namespace perfbench {
namespace {

using xsq::net::LineProtocol;

constexpr double kLayerBudgetS = 0.25;  // per in-process timing
constexpr double kPerDocBudgetS = 0.05;  // per-document parse and publish
constexpr size_t kPerDocDocs = 8;
constexpr int kLadderPairs = 24;
constexpr int kLadderMinRounds = 3;
constexpr int kLadderMaxRounds = 50;

class NoopHandler : public xsq::xml::SaxHandler {
 public:
  void OnBegin(std::string_view, const std::vector<xsq::xml::Attribute>&,
               int) override {}
  void OnEnd(std::string_view, int) override {}
  void OnText(std::string_view, std::string_view, int) override {}
};

// The cost of one NowNs() call, subtracted from each shimmed callback.
double ClockCostNs() {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const int kCalls = 20000;
    const int64_t t0 = NowNs();
    int64_t sink = 0;
    for (int i = 0; i < kCalls; ++i) sink += NowNs();
    samples.push_back(static_cast<double>(NowNs() - t0) / kCalls);
    if (sink == 42) samples.push_back(0);  // keeps the loop
  }
  return Median(samples);
}

// What a workload hands the traced run: its documents, its queries
// (also the standing queries of the pub/sub measurements), and the
// (document, query) pairs it serves with their weights.
struct LayerSet {
  std::vector<Document> docs;
  std::vector<std::string> queries;
  std::vector<Pair> pairs;
  std::vector<double> weights;
};

LayerSet StreamLayerSet(const StreamInputs& in) {
  LayerSet s;
  s.docs = in.docs;
  s.queries = in.queries;
  s.pairs = in.pairs;
  s.weights.assign(in.pairs.size(), 1.0);
  return s;
}

LayerSet ClusterLayerSet(const ClusterInputs& in) {
  LayerSet s;
  s.docs = in.docs;
  s.queries = in.queries;
  std::vector<std::pair<double, Pair>> all;
  for (uint32_t d = 0; d < in.docs.size(); ++d) {
    const double p = in.popularity_cdf[d] - (d == 0 ? 0.0 : in.popularity_cdf[d - 1]);
    for (uint32_t pick = 0; pick < kQueriesPerCorpus; ++pick) {
      all.push_back({p / kQueriesPerCorpus, {d, QueryFor(d, pick)}});
    }
  }
  // The most requested pairs: they carry most of the load.
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; i < all.size() && i < kLadderPairs; ++i) {
    s.weights.push_back(all[i].first);
    s.pairs.push_back(all[i].second);
  }
  return s;
}

size_t SourceBytes(const LayerSet& s) {
  size_t total = 0;
  for (const Document& d : s.docs) total += d.xml.size();
  return total;
}

// Repeats `pass` until `budget_s` has elapsed (at least once); returns
// seconds per pass.
template <typename F>
double TimePerPass(F&& pass, double budget_s = kLayerBudgetS) {
  int passes = 0;
  const int64_t t0 = NowNs();
  do {
    pass();
    ++passes;
  } while ((NowNs() - t0) * 1e-9 < budget_s);
  return (NowNs() - t0) * 1e-9 / passes;
}

// ------------------------------------------------------ in-process layers

struct InProcess {
  std::vector<xsq::tape::Tape> tapes;  // per doc
  std::vector<std::shared_ptr<const xsq::core::CompiledPlan>> plans;
  std::vector<double> parse_s;  // per doc, no-op handler
};

bool MeasureInProcess(const LayerSet& s, InProcess* ip, RunResult* out) {
  const double src = static_cast<double>(SourceBytes(s));
  xsq::xml::SetScanImpl(xsq::xml::BestScanImpl());
  size_t found = 0;
  const double scan_s = TimePerPass([&] {
    for (const Document& d : s.docs) {
      for (size_t p = 0; (p = xsq::xml::FindTextSpecial(d.xml, p)) != std::string::npos; ++p) ++found;
      for (size_t p = 0; (p = xsq::xml::FindTagSpecial(d.xml, p)) != std::string::npos; ++p) ++found;
    }
  });
  out->Add("xml.scan_gb_s", "GB/s", 2 * src / scan_s / 1e9);
  out->record["scan_impl"] = std::to_string(static_cast<int>(xsq::xml::CurrentScanImpl()));
  out->record["scan_specials_found"] = std::to_string(found);

  NoopHandler noop;
  xsq::xml::SaxParser parser(&noop);
  for (size_t i = 0; i < s.docs.size() && i < kPerDocDocs; ++i) {
    const std::string_view xml = s.docs[i].xml;
    ip->parse_s.push_back(TimePerPass([&] {
      parser.Reset();
      for (size_t off = 0; off < xml.size(); off += 64 << 10) {
        parser.Feed(xml.substr(off, 64 << 10));
      }
      parser.Finish();
    }, kPerDocBudgetS));
  }
  double parsed = 0, parse_total = 0;
  for (size_t i = 0; i < ip->parse_s.size(); ++i) {
    parsed += s.docs[i].xml.size();
    parse_total += ip->parse_s[i];
  }
  out->Add("xml.parse_mb_s", "MB/s", parsed / parse_total / 1e6);

  // Compile the distinct queries (at most 64 of a large set).
  const size_t compiled = std::min<size_t>(s.queries.size(), 64);
  const double compile_s = TimePerPass([&] {
    for (size_t q = 0; q < compiled; ++q) xsq::core::CompilePlan(s.queries[q]);
  });
  out->Add("xpath.compile_us", "us", compile_s / compiled * 1e6);
  for (const std::string& q : s.queries) {
    auto plan = xsq::core::CompilePlan(q);
    if (!plan.ok()) {
      out->errors.push_back(q + ": " + plan.status().ToString());
      return false;
    }
    ip->plans.push_back(*plan);
  }

  const double record_s = TimePerPass([&] {
    for (const Document& d : s.docs) xsq::tape::RecordDocument(d.xml);
  });
  out->Add("tape.record_mb_s", "MB/s", src / record_s / 1e6);
  size_t tape_bytes = 0;
  for (const Document& d : s.docs) {
    auto tape = xsq::tape::RecordDocument(d.xml);
    if (!tape.ok()) return false;
    tape_bytes += tape->memory_bytes();
    ip->tapes.push_back(*std::move(tape));
  }
  const double replay_s = TimePerPass([&] {
    for (const xsq::tape::Tape& t : ip->tapes) xsq::tape::Replay(t, &noop);
  });
  out->Add("tape.replay_mb_s", "MB/s", src / replay_s / 1e6);
  out->Add("tape.bytes_per_src_byte", "B/B", tape_bytes / src);

  // Automaton/buffer split over the ladder pairs, parse -> shim -> engine.
  const double clock_ns = ClockCostNs();
  int64_t automaton = 0, buffer = 0;
  uint64_t elements = 0, texts = 0;
  const int64_t split_start = NowNs();
  do {
    for (const Pair& p : s.pairs) {
      auto q = xsq::core::StreamingQuery::Open(ip->plans[p.query]);
      if (!q.ok()) return false;
      TimingShim shim((*q)->event_handler());
      xsq::xml::SaxParser shim_parser(&shim);
      shim_parser.Parse(s.docs[p.doc].xml);
      (*q)->FinishEvents();
      while ((*q)->NextItem()) {}
      automaton += shim.automaton_ns;
      buffer += shim.buffer_ns;
      elements += shim.element_events;
      texts += shim.text_events;
    }
  } while ((NowNs() - split_start) * 1e-9 < kLayerBudgetS);
  out->Add("core.automaton_ns_per_event", "ns",
           static_cast<double>(automaton) / std::max<uint64_t>(elements, 1) - clock_ns);
  out->Add("core.buffer_ns_per_event", "ns",
           static_cast<double>(buffer) / std::max<uint64_t>(texts, 1) - clock_ns);
  out->record["clock_cost_ns"] = std::to_string(clock_ns);

  // QueryService::Publish against the workload's standing queries.
  xsq::service::ServiceConfig config;
  config.num_workers = 1;
  config.max_subscriptions = s.queries.size() + 16;
  config.max_subscriber_queue_frames = 1 << 22;
  xsq::service::QueryService service(config);
  auto subscriber = service.AddSubscriber([](std::string_view) {});
  size_t predicate_subs = 0;
  for (const std::string& q : s.queries) {
    service.Subscribe(*subscriber, q);
    if (q.find('[') != std::string::npos) ++predicate_subs;
  }
  double self_us = 0, hpdt = 0;
  size_t publishes = 0;
  for (size_t i = 0; i < ip->parse_s.size(); ++i) {
    uint64_t evaluations = 0;
    const double publish_s = TimePerPass([&] {
      auto summary = service.Publish(s.docs[i].xml);
      if (summary.ok()) evaluations = summary->hpdt_evaluations;
    }, kPerDocBudgetS);
    self_us += (publish_s - ip->parse_s[i]) * 1e6;
    hpdt += static_cast<double>(evaluations);
    ++publishes;
  }
  out->Add("pubsub.publish_self_us", "us", self_us / publishes);
  out->Add("pubsub.survivor_ratio", "ratio",
           predicate_subs == 0 ? 0.0 : hpdt / publishes / predicate_subs);
  out->record["publish_docs_measured"] = std::to_string(publishes);
  return true;
}

// ------------------------------------------------------------ the ladder

struct LadderResult {
  std::vector<std::array<double, 5>> depth_ms;  // per pair: mean per depth
  double reply_kb = 0.0;
  std::array<double, 2> engine_ns_per_event{};  // [nc, f]
};

class Ladder {
 public:
  Ladder(const LayerSet& s, const InProcess& ip, Cluster* cluster)
      : s_(s), ip_(ip), cluster_(cluster), ring_(Cluster::kShards) {}

  // Records the documents in process, opens sessions everywhere and
  // computes each pair's reference reply. For workloads whose cluster
  // does not hold the documents yet, RECORDs them through the router.
  bool Prepare(bool record_remote, RunResult* out) {
    xsq::service::ServiceConfig config;
    config.num_workers = 1;
    config.doc_cache_capacity = 0;
    service_ = std::make_unique<xsq::service::QueryService>(config);
    protocol_ = std::make_unique<LineProtocol>(service_.get());
    router_ = Connect(cluster_->router_port());
    for (int sh = 0; sh < Cluster::kShards; ++sh) {
      direct_.push_back(Connect(cluster_->shard_port(sh)));
    }
    std::vector<bool> docs_needed(s_.docs.size(), false);
    for (const Pair& p : s_.pairs) docs_needed[p.doc] = true;
    for (uint32_t d = 0; d < s_.docs.size(); ++d) {
      if (!docs_needed[d]) continue;
      if (!service_->RecordDocument(s_.docs[d].name, s_.docs[d].xml).ok()) return false;
      if (record_remote) {
        auto r = router_->Request("RECORD " + s_.docs[d].name + " " +
                                  LineProtocol::Escape(s_.docs[d].xml));
        if (!r.ok() || !r->status.ok()) {
          out->errors.push_back("ladder RECORD failed");
          return false;
        }
      }
    }
    for (const Pair& p : s_.pairs) {
      const std::string& q = s_.queries[p.query];
      if (local_.count(p.query) == 0) {
        auto id = service_->OpenSession(q);
        auto r = router_->Request("OPEN " + q);
        if (!id.ok() || !r.ok() || !r->status.ok()) return false;
        local_[p.query] = *id;
        routed_[p.query] = r->ok_payload;
      }
      const size_t owner = *ring_.Owner(s_.docs[p.doc].name);
      auto key = std::make_pair(owner, p.query);
      if (remote_.count(key) == 0) {
        auto r = direct_[owner]->Request("OPEN " + q);
        if (!r.ok() || !r->status.ok()) return false;
        remote_[key] = r->ok_payload;
      }
      auto opened = service_->OpenSession(q);
      if (!opened.ok()) return false;
      std::string reply;
      protocol_->HandleLine("RUNCACHED " + std::to_string(*opened) + " " +
                                s_.docs[p.doc].name,
                            &reply);
      service_->Release(*opened);
      reference_.push_back(Fnv1a(reply));
      auto q_open = xsq::core::StreamingQuery::Open(ip_.plans[p.query]);
      if (!q_open.ok()) return false;
      engines_.push_back(*std::move(q_open));
    }
    return true;
  }

  LadderResult Run(uint64_t seed, double budget_s, SpanRecorder* spans,
                   RunResult* out) {
    LadderResult result;
    const size_t n = s_.pairs.size();
    std::vector<std::array<std::vector<double>, 5>> samples(n);
    NoopHandler noop;
    Rng rng(SubSeed(seed, 55));
    double reply_bytes = 0;
    size_t replies = 0;
    std::array<double, 2> engine_ns{}, events{};
    const int64_t start = NowNs();
    // Round 0 warms every depth (router session bindings, caches) and
    // is not counted.
    for (int round = 0; round <= kLadderMaxRounds; ++round) {
      if (round > kLadderMinRounds && (NowNs() - start) * 1e-9 > budget_s) break;
      for (size_t i = 0; i < n; ++i) {
        const Pair& p = s_.pairs[i];
        const std::string& name = s_.docs[p.doc].name;
        const size_t owner = *ring_.Owner(name);
        std::array<int, 5> depths = {0, 1, 2, 3, 4};
        for (int k = 4; k > 0; --k) std::swap(depths[k], depths[rng.Below(k + 1)]);
        for (int depth : depths) {
          static const char* kNames[] = {"ladder.d1.replay", "ladder.d2.engine",
                                         "ladder.d3.service", "ladder.d4.shard",
                                         "ladder.d5.router"};
          const int64_t t0 = NowNs();
          bool local_ok = true;
          std::optional<xsq::Result<xsq::net::Response>> reply;
          switch (depth) {
            case 0:
              local_ok = xsq::tape::Replay(ip_.tapes[p.doc], &noop).ok();
              break;
            case 1: {
              xsq::core::StreamingQuery& q = *engines_[i];
              q.Reset();
              local_ok = xsq::tape::Replay(ip_.tapes[p.doc], q.event_handler()).ok() &&
                         q.FinishEvents().ok();
              while (q.NextItem()) {}
              break;
            }
            case 2: {
              const auto id = local_.at(p.query);
              local_ok = service_->RunCached(id, name).ok();
              service_->Drain(id);
              service_->FinalAggregate(id);
              break;
            }
            case 3:
              reply = direct_[owner]->Request("RUNCACHED " + remote_.at({owner, p.query}) +
                                              " " + name);
              break;
            case 4:
              reply = router_->Request("RUNCACHED " + routed_.at(p.query) + " " + name);
              break;
          }
          const int64_t t1 = NowNs();
          if (round == 0) continue;
          spans->Add(kNames[depth], 0, i + 1, t0, t1);
          const std::string what = std::string(kNames[depth]) + " " + name;
          bool ok;
          if (reply.has_value()) {
            ok = CheckReply(*reply, reference_[i], what, out);
            if (ok && depth == 3) {
              for (const std::string& line : (*reply)->lines) reply_bytes += line.size() + 1;
              reply_bytes += 3;
              ++replies;
            }
          } else {
            // In process, on a document and query the reference ran.
            ++out->attempted;
            ok = local_ok;
            if (!ok) out->Fail(what + " failed", true);
          }
          if (ok) samples[i][depth].push_back((t1 - t0) * 1e-6);
        }
      }
    }
    result.depth_ms.resize(n);
    for (size_t i = 0; i < n; ++i) {
      // Means, not medians: self times must add up to the time spent.
      for (int d = 0; d < 5; ++d) {
        const auto& v = samples[i][d];
        result.depth_ms[i][d] =
            v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
      }
      const double ev = static_cast<double>(ip_.tapes[s_.pairs[i].doc].event_count());
      const int kind = engines_[i]->uses_deterministic_engine() ? 0 : 1;
      engine_ns[kind] += (result.depth_ms[i][1] - result.depth_ms[i][0]) * 1e6;
      events[kind] += ev;
    }
    for (int k = 0; k < 2; ++k) {
      result.engine_ns_per_event[k] = events[k] > 0 ? engine_ns[k] / events[k] : 0.0;
    }
    result.reply_kb = replies ? reply_bytes / replies / 1024.0 : 0.0;
    return result;
  }

  // Streams the first pairs' documents through OPEN / PUSH... / CLOSE
  // sessions via the router, so the shards' service queues see work on
  // every workload; each CLOSE reply is checked against the in-process
  // protocol. Returns the session times, ms.
  std::vector<double> Sessions(RunResult* out) {
    std::vector<double> ms;
    for (size_t i = 0; i < s_.pairs.size() && i < 8; ++i) {
      const std::string& q = s_.queries[s_.pairs[i].query];
      const std::string& xml = s_.docs[s_.pairs[i].doc].xml;
      std::vector<std::string> chunks;
      for (size_t off = 0; off < xml.size(); off += 16 << 10) {
        chunks.push_back(LineProtocol::Escape(std::string_view(xml).substr(off, 16 << 10)));
      }
      std::string reply;
      protocol_->HandleLine("OPEN " + q, &reply);
      const std::string local = reply.substr(3, reply.find('\n') - 3);
      for (const std::string& c : chunks) {
        reply.clear();
        protocol_->HandleLine("PUSH " + local + " " + c, &reply);
      }
      reply.clear();
      protocol_->HandleLine("CLOSE " + local, &reply);
      const uint64_t expected = Fnv1a(reply);

      const int64_t t0 = NowNs();
      auto opened = router_->Request("OPEN " + q);
      bool ok = CheckReply(opened, std::nullopt, "session OPEN " + q, out);
      for (size_t k = 0; ok && k < chunks.size(); ++k) {
        ok = CheckReply(router_->Request("PUSH " + opened->ok_payload + " " + chunks[k]),
                        std::nullopt, "session PUSH", out);
      }
      if (ok && CheckReply(router_->Request("CLOSE " + opened->ok_payload), expected,
                           "session CLOSE " + q, out)) {
        ms.push_back((NowNs() - t0) * 1e-6);
      }
    }
    return ms;
  }

  const xsq::cluster::ShardMap& ring() const { return ring_; }

 private:
  const LayerSet& s_;
  const InProcess& ip_;
  Cluster* cluster_;
  xsq::cluster::ShardMap ring_;
  std::unique_ptr<xsq::service::QueryService> service_;
  std::unique_ptr<LineProtocol> protocol_;
  std::unique_ptr<xsq::net::Client> router_;
  std::vector<std::unique_ptr<xsq::net::Client>> direct_;
  std::map<uint32_t, xsq::service::SessionId> local_;
  std::map<uint32_t, std::string> routed_;
  std::map<std::pair<size_t, uint32_t>, std::string> remote_;
  std::vector<uint64_t> reference_;
  std::vector<std::unique_ptr<xsq::core::StreamingQuery>> engines_;
};

// ---------------------------------------------------- cluster observation

// Histogram p50 from summed bucket deltas: the upper bound of the
// bucket holding the median; 0 when nothing was observed.
double BucketP50(const std::vector<std::map<std::string, double>>& after_all,
                 const std::vector<std::map<std::string, double>>& before_all,
                 const std::string& metric) {
  std::map<double, double> cumulative;  // le -> count delta
  for (size_t s = 0; s < after_all.size(); ++s) {
    for (const auto& [name, value] : after_all[s]) {
      if (name.rfind(metric + "_bucket{le=\"", 0) != 0) continue;
      const std::string le = name.substr(metric.size() + 12, name.size() - metric.size() - 14);
      if (le == "+Inf") continue;
      auto it = before_all[s].find(name);
      cumulative[std::strtod(le.c_str(), nullptr)] +=
          value - (it == before_all[s].end() ? 0.0 : it->second);
    }
  }
  if (cumulative.empty() || cumulative.rbegin()->second <= 0) return 0.0;
  const double half = cumulative.rbegin()->second / 2;
  for (const auto& [le, count] : cumulative) {
    if (count >= half) return le;
  }
  return cumulative.rbegin()->first;
}

double Delta(const std::map<std::string, double>& a,
             const std::map<std::string, double>& b, const std::string& key) {
  auto ia = a.find(key);
  auto ib = b.find(key);
  return (ib == b.end() ? 0.0 : ib->second) - (ia == a.end() ? 0.0 : ia->second);
}

double HitRatio(const std::map<std::string, double>& before,
                const std::map<std::string, double>& after,
                const std::string& cache) {
  const double hits = Delta(before, after, cache + "_hits");
  const double misses = Delta(before, after, cache + "_misses");
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// Samples xsq_router_repl_pending while alive; keeps the maximum.
class PendingMonitor {
 public:
  explicit PendingMonitor(uint16_t router_port) {
    thread_ = std::thread([this, router_port] {
      while (!stop_) {
        auto m = Scrape(router_port, "METRICS");
        auto it = m.find("xsq_router_repl_pending");
        if (it != m.end()) {
          double seen = max_.load();
          while (it->second > seen && !max_.compare_exchange_weak(seen, it->second)) {}
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }
  ~PendingMonitor() {
    stop_ = true;
    thread_.join();
  }
  double max() const { return max_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> max_{0.0};
  std::thread thread_;
};

// --------------------------------------------- replication, fan-out, kill

double ReplicationLagMs(Cluster& cluster, const xsq::cluster::ShardMap& ring,
                        const LayerSet& s, RunResult* out) {
  auto router = Connect(cluster.router_port());
  std::vector<std::unique_ptr<xsq::net::Client>> probes;
  for (int sh = 0; sh < Cluster::kShards; ++sh) {
    probes.push_back(Connect(cluster.shard_port(sh)));
  }
  // The smallest documents: the lag of the plane, not of the copy.
  std::vector<size_t> order(s.docs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return s.docs[a].xml.size() < s.docs[b].xml.size();
  });
  std::vector<double> lags;
  for (size_t k = 0; k < 8 && k < order.size(); ++k) {
    const std::string name = "lag" + std::to_string(k);
    const std::vector<bool> alive(Cluster::kShards, true);
    const std::vector<size_t> owners = ring.Owners(name, Cluster::kReplication, alive);
    if (owners.size() < Cluster::kReplication) {
      out->Fail("no second owner for " + name, true);
      continue;
    }
    auto r = router->Request("RECORD " + name + " " +
                             LineProtocol::Escape(s.docs[order[k]].xml));
    const int64_t acked = NowNs();
    if (!CheckReply(r, std::nullopt, "replication RECORD " + name, out)) continue;
    const int64_t give_up = acked + 5'000'000'000;
    bool seen = false;
    while (!seen && NowNs() < give_up) {
      for (const std::string& doc : ResidentDocs(*probes[owners[1]])) {
        seen = seen || doc == name;
      }
      if (!seen) std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (!seen) {
      out->Fail("replica of " + name + " never appeared", true);
      continue;
    }
    lags.push_back((NowNs() - acked) * 1e-6);
  }
  return Median(lags);
}

// A subscriber connection holding every standing query of a layer set
// on one shard, and a publisher connection to the same shard.
class FanoutRig {
 public:
  static std::unique_ptr<FanoutRig> Setup(const std::vector<std::string>& subscriptions,
                                          uint16_t port, std::string* error) {
    std::unique_ptr<FanoutRig> rig(new FanoutRig());
    if (!rig->subscriber_.Connect(port)) {
      *error = "subscriber connect failed";
      return nullptr;
    }
    std::string batch;
    for (const std::string& q : subscriptions) batch += "SUBSCRIBE " + q + "\n";
    if (!rig->subscriber_.Send(batch)) {
      *error = "SUBSCRIBE send failed";
      return nullptr;
    }
    std::string line;
    for (size_t i = 0; i < subscriptions.size(); ++i) {
      if (!rig->subscriber_.ReadLine(&line, 10000) || line.rfind("OK ", 0) != 0) {
        *error = "SUBSCRIBE failed: " + line;
        return nullptr;
      }
    }
    rig->reader_ = std::thread([r = rig.get()] { r->ReadFrames(); });
    rig->publisher_ = Connect(port);
    return rig;
  }

  ~FanoutRig() {
    stop_ = true;
    subscriber_.Shutdown();
    if (reader_.joinable()) reader_.join();
  }

  // PUBLISHes `xml` and waits for its EVENT frames; their count must
  // equal the reply's enqueued=. Returns the time from the PUBLISH
  // reply to the last frame, ms, when the publish is correct.
  std::optional<double> Publish(const std::string& xml, RunResult* out) {
    auto reply = publisher_->Request("PUBLISH " + LineProtocol::Escape(xml));
    const int64_t reply_ns = NowNs();
    if (!CheckReply(reply, std::nullopt, "fan-out PUBLISH", out)) return std::nullopt;
    const std::string& summary = reply->ok_payload;
    const size_t at = summary.find("enqueued=");
    const uint64_t enqueued =
        at == std::string::npos ? 0 : std::strtoull(summary.c_str() + at + 9, nullptr, 10);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10),
                 [&] { return frames_ >= enqueued || reader_done_; });
    const uint64_t got = frames_;
    frames_ = 0;
    if (got != enqueued) {
      out->Fail("fan-out: " + std::to_string(got) + " EVENT frames for enqueued=" +
                    std::to_string(enqueued),
                true);
      return std::nullopt;
    }
    return enqueued == 0 ? 0.0 : (last_frame_ns_ - reply_ns) * 1e-6;
  }

 private:
  FanoutRig() = default;

  void ReadFrames() {
    std::string frame;
    while (!stop_) {
      if (!subscriber_.ReadLine(&frame, 100)) {
        if (stop_) break;
        continue;
      }
      if (frame.rfind("EVENT ", 0) != 0) continue;
      const int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(mu_);
      ++frames_;
      last_frame_ns_ = now;
      // Every frame wakes the publisher: a publisher left asleep until
      // the last one pays a cold wake-up before its next PUBLISH.
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    reader_done_ = true;
    cv_.notify_all();
  }

  LineConn subscriber_;
  std::unique_ptr<xsq::net::Client> publisher_;
  std::thread reader_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t frames_ = 0;
  int64_t last_frame_ns_ = 0;
  bool reader_done_ = false;
  std::atomic<bool> stop_{false};
};

std::vector<double> FanoutOverTcp(uint16_t port, const LayerSet& s, RunResult* out) {
  std::string error;
  std::vector<double> lags;
  auto rig = FanoutRig::Setup(s.queries, port, &error);
  if (rig == nullptr) {
    out->Fail("fan-out rig: " + error, false);
    return lags;
  }
  for (int round = 0; round < 3; ++round) {
    for (size_t d = 0; d < s.docs.size() && d < 16; ++d) {
      if (auto lag = rig->Publish(s.docs[d].xml, out)) lags.push_back(*lag);
    }
  }
  return lags;
}

double FailoverExtraMs(Cluster& cluster, const xsq::cluster::ShardMap& ring,
                       const LayerSet& s, RunResult* out) {
  const Pair p = s.pairs.front();
  const std::string& name = s.docs[p.doc].name;
  auto router = Connect(cluster.router_port());
  auto opened = router->Request("OPEN " + s.queries[p.query]);
  if (!CheckReply(opened, std::nullopt, "failover OPEN", out)) return 0.0;
  const std::string line = "RUNCACHED " + opened->ok_payload + " " + name;
  // The first reply is the reference for the rest.
  auto first = router->Request(line);
  if (!CheckReply(first, std::nullopt, "failover " + line, out)) return 0.0;
  const uint64_t digest = BlockDigest(*first);
  std::vector<double> before;
  for (int i = 0; i < 20; ++i) {
    const int64_t t0 = NowNs();
    auto r = router->Request(line);
    if (CheckReply(r, digest, "before kill " + line, out)) {
      before.push_back((NowNs() - t0) * 1e-6);
    }
  }
  const size_t primary = *ring.Owner(name);
  cluster.shard(static_cast<int>(primary)).Stop(SIGKILL);
  const int64_t t0 = NowNs();
  auto r = router->Request(line);
  const double after = (NowNs() - t0) * 1e-6;
  CheckReply(r, digest, "after primary kill " + line, out);
  return after - Median(before);
}

void WriteSpans(const RunOptions& opt, const std::vector<SpanRecorder>& recorders) {
  if (opt.out_dir.empty()) return;
  std::ofstream file(opt.out_dir + "/trace-" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".jsonl");
  for (const SpanRecorder& r : recorders) file << r.ToJsonLines();
}

// cluster_read: the ladder's router depth (the sum of its self times)
// against the end-to-end time of the workload's own connections over the
// same interval, pair by pair. Measured side by side, both see the same
// contention from the host.
double Coverage(const LayerSet& s, const LadderResult& ladder, const LoadResult& load) {
  double predicted = 0, actual = 0;
  for (size_t i = 0; i < s.pairs.size(); ++i) {
    auto it = load.by_pair.find(PairKey(s.pairs[i]));
    if (it == load.by_pair.end()) continue;
    predicted += ladder.depth_ms[i][4] * it->second.second;
    actual += it->second.first;
  }
  return actual > 0 ? predicted / actual : 0.0;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  return {{"xml.scan_gb_s", "GB/s"},
          {"xml.parse_mb_s", "MB/s"},
          {"xpath.compile_us", "us"},
          {"core.nc_ns_per_event", "ns"},
          {"core.f_ns_per_event", "ns"},
          {"core.automaton_ns_per_event", "ns"},
          {"core.buffer_ns_per_event", "ns"},
          {"tape.record_mb_s", "MB/s"},
          {"tape.replay_mb_s", "MB/s"},
          {"tape.bytes_per_src_byte", "B/B"},
          {"service.runcached_self_us", "us"},
          {"service.queue_wait_us_p50", "us"},
          {"service.doc_cache_hit_ratio", "ratio"},
          {"service.plan_cache_hit_ratio", "ratio"},
          {"net.rtt_us", "us"},
          {"net.hop_self_us", "us"},
          {"net.reply_kb", "KiB"},
          {"cluster.router_self_us", "us"},
          {"cluster.failovers", "count"},
          {"cluster.repl_lag_ms", "ms"},
          {"cluster.repl_pending_max", "count"},
          {"cluster.failover_extra_ms", "ms"},
          {"pubsub.publish_self_us", "us"},
          {"pubsub.survivor_ratio", "ratio"},
          {"pubsub.fanout_lag_ms", "ms"},
          {"gen.lag_ms_p99", "ms"},
          {"trace.coverage", "ratio"},
          {"trace.overhead", "ratio"}};
}

bool RunTraced(const RunOptions& opt, RunResult* out) {
  const std::string& w = opt.workload;
  if (w != "stream" && w != "cluster_read") {
    out->errors.push_back("unknown workload " + w);
    return false;
  }
  const bool stream = w == "stream";
  std::string error;
  LayerSet set;
  // The workload's inputs, references and rig; stream's ladder cluster.
  StreamInputs stream_in;
  std::vector<StreamRef> stream_refs;
  std::vector<std::unique_ptr<xsq::core::StreamingQuery>> queries;
  ClusterInputs cluster_in;
  ClusterRef cluster_ref;
  std::unique_ptr<ClusterRig> rig;
  std::vector<ReadStream> streams;
  std::unique_ptr<Cluster> ladder_cluster;

  if (stream) {
    stream_in = MakeStreamInputs(opt.seed);
    stream_refs = StreamReferences(stream_in, &error);
    if (stream_refs.empty() || !OpenStreamQueries(stream_in, &queries, &error)) {
      return out->errors.push_back(error), false;
    }
    for (uint32_t pi : stream_in.order) {
      EvaluateStreamPair(stream_in, stream_refs, *queries[pi], pi, nullptr, 0, out);
    }
    set = StreamLayerSet(stream_in);
    ladder_cluster = Cluster::Start(&error);
    if (ladder_cluster == nullptr) return out->errors.push_back(error), false;
  } else {
    cluster_in = MakeClusterInputs(opt.seed);
    if (!ClusterReferences(cluster_in, &cluster_ref, &error)) {
      return out->errors.push_back(error), false;
    }
    rig = SetupCluster(cluster_in, cluster_ref, out, &error);
    if (rig == nullptr) return out->errors.push_back(error), false;
    WarmCluster(cluster_in, cluster_ref, *rig, out);
    set = ClusterLayerSet(cluster_in);
    streams = ReadStreams(cluster_in, opt.seed);
  }
  Cluster& cluster = stream ? *ladder_cluster : *rig->cluster;

  // 1. In-process layers.
  InProcess ip;
  if (!MeasureInProcess(set, &ip, out)) return false;

  const auto stats_before = Scrape(cluster.router_port(), "STATS");
  const auto metrics_before = Scrape(cluster.router_port(), "METRICS");
  std::vector<std::map<std::string, double>> shard_before;
  for (int s = 0; s < Cluster::kShards; ++s) {
    shard_before.push_back(Scrape(cluster.shard_port(s), "METRICS"));
  }
  auto pending = std::make_unique<PendingMonitor>(cluster.router_port());

  // 2. The workload's load loop: untraced and traced slices, alternating.
  // Spans: one recorder per connection, plus one for the ladder.
  std::vector<SpanRecorder> spans;
  for (int c = 0; c <= kConnections; ++c) spans.emplace_back(static_cast<uint32_t>(c));
  LoadResult untraced, traced;
  // Half the run's seconds go to the four measured load slices, a
  // quarter to the ladder, the rest to the warm-up slice and the
  // in-process timings.
  const int64_t slice_ns = static_cast<int64_t>(opt.seconds / 8 * 1e9);
  size_t cursor = 0;
  // A discarded warm-up slice first, since the load idled through the
  // in-process timings; then untraced, traced, traced, untraced, so a
  // steady drift of the host over the slices cancels out of the ratio.
  LoadResult warm_up;
  const int kSlices[] = {-1, 0, 1, 1, 0};
  for (int kind : kSlices) {
    const bool on = kind == 1;
    LoadResult* load = kind < 0 ? &warm_up : on ? &traced : &untraced;
    const int64_t start = NowNs();
    if (stream) {
      StreamLoop(stream_in, stream_refs, queries, start, start + slice_ns, &cursor,
                 on ? &spans[0] : nullptr, nullptr, load, out);
    } else {
      ReadLoop(cluster_in, cluster_ref, *rig, streams, kConnections, start,
               start + slice_ns, nullptr, on ? &spans : nullptr, load, out);
    }
  }

  // 3. The ladder.
  Ladder ladder(set, ip, &cluster);
  if (!ladder.Prepare(stream, out)) {
    out->errors.push_back("ladder set-up failed");
    return false;
  }
  // On cluster_read the ladder is one of kConnections clients: the
  // others keep the workload's load running, so the ladder's depths see
  // the contention the traced slices saw.
  std::atomic<bool> stop_background{false};
  LoadResult background_load;
  RunResult background_out;
  std::thread background;
  if (!stream) {
    background = std::thread([&] {
      ReadLoop(cluster_in, cluster_ref, *rig, streams, kConnections - 1, NowNs(),
               std::numeric_limits<int64_t>::max(), &stop_background, nullptr,
               &background_load, &background_out);
    });
  }
  LadderResult lr = ladder.Run(opt.seed, opt.seconds / 4, &spans[kConnections], out);
  stop_background = true;
  if (background.joinable()) background.join();
  out->Absorb(background_out);
  double self[5] = {0, 0, 0, 0, 0};
  double weight = 0;
  for (size_t i = 0; i < set.pairs.size(); ++i) {
    const auto& d = lr.depth_ms[i];
    const double layer[5] = {d[0], d[1] - d[0], d[2] - d[1], d[3] - d[2], d[4] - d[3]};
    for (int k = 0; k < 5; ++k) self[k] += set.weights[i] * layer[k];
    weight += set.weights[i];
  }
  for (double& v : self) v /= weight;
  out->Add("core.nc_ns_per_event", "ns", lr.engine_ns_per_event[0]);
  out->Add("core.f_ns_per_event", "ns", lr.engine_ns_per_event[1]);
  out->Add("service.runcached_self_us", "us", self[2] * 1e3);
  out->Add("net.hop_self_us", "us", self[3] * 1e3);
  out->Add("net.reply_kb", "KiB", lr.reply_kb);
  out->Add("cluster.router_self_us", "us", self[4] * 1e3);
  {
    std::string ladder_json = "{";
    const char* names[] = {"replay", "engine", "service", "net", "router"};
    for (int k = 0; k < 5; ++k) {
      ladder_json += std::string(k ? "," : "") + "\"" + names[k] + "_ms\":" +
                     std::to_string(self[k]);
    }
    out->record["ladder_self"] = ladder_json + "}";
  }

  const std::vector<double> session_ms = ladder.Sessions(out);
  out->record["session_ms_median"] = std::to_string(Median(session_ms));

  // net.rtt_us: a verb the shard answers without service work.
  {
    auto direct = Connect(cluster.shard_port(0));
    std::vector<double> rtt;
    for (int i = 0; i < 200; ++i) {
      const int64_t t0 = NowNs();
      auto r = direct->Request("DRAIN -");
      if (r.ok()) rtt.push_back((NowNs() - t0) * 1e-3);
    }
    out->Add("net.rtt_us", "us", Median(rtt));
  }

  // trace.coverage and trace.overhead.
  double coverage = 0;
  if (stream) {
    SpanRecorder& r = spans[0];
    auto self_by = r.SelfTimeByName();
    auto dur_by = r.DurationByName();
    const double layers = self_by["xml.parse"] + self_by["core.automaton"] +
                          self_by["core.buffer"];
    coverage = dur_by["stream.op"] > 0 ? layers / dur_by["stream.op"] : 0;
  } else {
    coverage = Coverage(set, lr, background_load);
  }
  out->Add("trace.coverage", "ratio", coverage);
  const double mean_untraced = untraced.MeanMs();
  out->Add("trace.overhead", "ratio",
           mean_untraced > 0 ? traced.MeanMs() / mean_untraced - 1.0 : 0.0);

  // 4. Replication, fan-out over TCP, then the counters, then the kill.
  out->Add("cluster.repl_lag_ms", "ms", ReplicationLagMs(cluster, ladder.ring(), set, out));
  out->Add("pubsub.fanout_lag_ms", "ms",
           Median(FanoutOverTcp(cluster.shard_port(0), set, out)));

  const double pending_max = pending->max();
  pending.reset();
  const auto stats_after = Scrape(cluster.router_port(), "STATS");
  const auto metrics_after = Scrape(cluster.router_port(), "METRICS");
  std::vector<std::map<std::string, double>> shard_after;
  for (int s = 0; s < Cluster::kShards; ++s) {
    shard_after.push_back(Scrape(cluster.shard_port(s), "METRICS"));
  }
  out->Add("service.queue_wait_us_p50", "us",
           BucketP50(shard_after, shard_before, "xsq_queue_wait_us"));
  out->Add("service.doc_cache_hit_ratio", "ratio",
           HitRatio(stats_before, stats_after, "doc_cache"));
  out->Add("service.plan_cache_hit_ratio", "ratio",
           HitRatio(stats_before, stats_after, "plan_cache"));
  out->Add("cluster.failovers", "count",
           Delta(metrics_before, metrics_after, "xsq_router_failovers_total"));
  out->Add("cluster.repl_pending_max", "count", pending_max);

  std::vector<double> lag = untraced.gap_ms;
  lag.insert(lag.end(), traced.gap_ms.begin(), traced.gap_ms.end());
  out->Add("gen.lag_ms_p99", "ms", Percentile(lag, 0.99), lag.size());

  out->Add("cluster.failover_extra_ms", "ms", FailoverExtraMs(cluster, ladder.ring(), set, out));

  WriteSpans(opt, spans);
  return true;
}

}  // namespace perfbench
