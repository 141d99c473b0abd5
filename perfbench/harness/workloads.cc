// The untraced runs of the two workloads, their load loops, and the
// rigs and reference answers they share with the traced run.
#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/compiled_plan.h"
#include "dom/builder.h"
#include "dom/evaluator.h"
#include "net/line_protocol.h"
#include "host_probe.h"
#include "procs.h"
#include "service/query_service.h"
#include "tape/recorder.h"
#include "tape/replayer.h"
#include "xpath/ast.h"

namespace perfbench {

using xsq::net::LineProtocol;

void RunResult::Fail(const std::string& what, bool wrong_answer) {
  ++failed;
  if (wrong_answer) ++wrong;
  if (errors.size() < 8) errors.push_back(what);
}

void RunResult::Absorb(const RunResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

std::unique_ptr<xsq::net::Client> Connect(uint16_t port) {
  xsq::net::ClientConfig config;
  config.port = port;
  config.max_retries = 0;
  config.request_timeout_ms = 10000;
  auto client = std::make_unique<xsq::net::Client>(config);
  client->Connect();
  return client;
}

uint64_t BlockDigest(const xsq::net::Response& reply) {
  uint64_t h = Fnv1a("");
  for (const std::string& line : reply.lines) {
    h = Fnv1a(line, h);
    h = Fnv1a("\n", h);
  }
  std::string terminator;
  if (reply.status.ok()) {
    terminator = reply.ok_payload.empty() ? "OK" : "OK " + reply.ok_payload;
  } else {
    terminator = "ERR " + reply.status.ToString();
  }
  return Fnv1a(terminator + "\n", h);
}

bool CheckReply(const xsq::Result<xsq::net::Response>& reply,
                std::optional<uint64_t> expected, const std::string& what,
                RunResult* out) {
  ++out->attempted;
  if (!reply.ok()) {
    out->Fail(what + ": " + reply.status().ToString(), false);
    return false;
  }
  if (!reply->status.ok()) {
    out->Fail(what + ": " + reply->status.ToString(), true);
    return false;
  }
  if (expected.has_value() && BlockDigest(*reply) != *expected) {
    out->Fail(what + ": reply differs", true);
    return false;
  }
  return true;
}

void AddThroughputAndLatency(RunResult* out, const Completed& done,
                             const std::vector<Slice>& slices) {
  std::vector<Timed> ops = done.latency_ms;
  for (Timed& t : ops) t.value = 1.0;
  const size_t n = ops.size();
  out->Add("ops_s", "1/s", SliceRate(ops, slices), n);
  out->Add("src_mb_s", "MB/s", SliceRate(done.bytes, slices) / 1e6, n);
  Summary s = SummarizeBlocks(AtReferenceSpeed(done.latency_ms, slices));
  out->Add("p50_ms", "ms", s.p50, s.count);
  out->Add("p90_ms", "ms", s.p90, s.count);
  // The p99 goes into the run record, not the bounded rows: on the
  // reference host its run-to-run spread was 0.3-0.65 of its median.
  const auto number = [](std::optional<double> v) {
    return v ? std::to_string(*v) : std::string("null");
  };
  out->record["p99_ms"] = number(s.p99);
  // The same figures as measured, before scaling to the reference host.
  std::vector<double> scales;
  double load_s = 0.0;
  for (const Slice& slice : slices) {
    scales.push_back(slice.scale);
    load_s += slice.end_s - slice.begin_s - slice.probe_s;
  }
  const Summary raw = SummarizeBlocks(done.latency_ms);
  out->record["host_scale"] = std::to_string(Median(scales));
  out->record["measured_ops_s"] = std::to_string(load_s > 0 ? n / load_s : 0.0);
  out->record["measured_p50_ms"] = number(raw.p50);
  out->record["measured_p90_ms"] = number(raw.p90);
}

double CurrentRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks ticks;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0 : static_cast<double>(after.steal - before.steal) / total;
}

struct RssSampler::State {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  double peak = 0.0;
  std::thread thread;
};

RssSampler::RssSampler() : state_(std::make_unique<State>()) {
  state_->peak = CurrentRssMb();
  state_->thread = std::thread([s = state_.get()] {
    std::unique_lock<std::mutex> lock(s->mu);
    while (!s->stop) {
      lock.unlock();
      const double rss = CurrentRssMb();
      lock.lock();
      s->peak = std::max(s->peak, rss);
      s->cv.wait_for(lock, std::chrono::milliseconds(20));
    }
  });
}

RssSampler::~RssSampler() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_all();
  state_->thread.join();
}

double RssSampler::PeakMb() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return std::max(state_->peak, CurrentRssMb());
}

void TimingShim::OnBegin(std::string_view tag,
                         const std::vector<xsq::xml::Attribute>& a, int depth) {
  const int64_t t0 = NowNs();
  inner_->OnBegin(tag, a, depth);
  automaton_ns += NowNs() - t0;
  ++element_events;
}

void TimingShim::OnEnd(std::string_view tag, int depth) {
  const int64_t t0 = NowNs();
  inner_->OnEnd(tag, depth);
  automaton_ns += NowNs() - t0;
  ++element_events;
}

void TimingShim::OnText(std::string_view tag, std::string_view text, int depth) {
  const int64_t t0 = NowNs();
  inner_->OnText(tag, text, depth);
  buffer_ns += NowNs() - t0;
  ++text_events;
}

void TimingShim::OnDocumentEnd() {
  const int64_t t0 = NowNs();
  inner_->OnDocumentEnd();
  automaton_ns += NowNs() - t0;
}

namespace {

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

// Runs `load(deadline_ns)` in about seconds / kSliceS slices that fill
// `seconds` from `start_ns`; the load runs probe ticks between its
// operations. Returns the slices, each with the scale of its ticks.
template <typename Load>
std::vector<Slice> RunSliced(HostProbe& probe, int64_t start_ns, double seconds,
                             Load&& load) {
  const int n = std::max(1, static_cast<int>(std::lround(seconds / kSliceS)));
  std::vector<Slice> slices;
  probe.Take();
  for (int k = 1; k <= n; ++k) {
    const double begin = SecondsSince(start_ns);
    load(start_ns + static_cast<int64_t>(seconds * 1e9 * k / n));
    const HostProbe::Taken taken = probe.Take();
    slices.push_back({begin, SecondsSince(start_ns), taken.scale, taken.wall_s});
  }
  return slices;
}

void AddSetup(RunResult* out, const std::vector<double>& setups) {
  out->Add("setup_s", "s", Median(setups), setups.size());
  std::string list = "[";
  for (double s : setups) list += (list.size() > 1 ? "," : "") + std::to_string(s);
  out->record["setup_samples_s"] = list + "]";
}

uint64_t ItemsDigest(uint64_t hash, std::string_view item) {
  return Fnv1a(std::string_view("\0", 1), Fnv1a(item, hash));
}

bool SameAggregate(const std::optional<double>& a,
                   const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return std::fabs(*a - *b) <= 1e-9 * std::max(1.0, std::fabs(*b));
}

// "OK <id>" -> "<id>".
std::string OpenedId(const std::string& reply) {
  if (reply.rfind("OK ", 0) != 0) return "";
  return reply.substr(3, reply.find('\n') - 3);
}

}  // namespace

// ============================================================== references

std::vector<StreamRef> StreamReferences(const StreamInputs& in,
                                        std::string* error) {
  std::vector<StreamRef> refs(in.pairs.size());
  std::vector<xsq::xpath::Query> queries;
  for (const std::string& text : in.queries) {
    auto q = xsq::xpath::ParseQuery(text);
    if (!q.ok()) {
      *error = "query '" + text + "': " + q.status().ToString();
      return {};
    }
    queries.push_back(*std::move(q));
  }
  for (uint32_t d = 0; d < in.docs.size(); ++d) {
    auto dom = xsq::dom::BuildFromString(in.docs[d].xml);
    if (!dom.ok()) {
      *error = in.docs[d].name + ": " + dom.status().ToString();
      return {};
    }
    for (size_t i = 0; i < in.pairs.size(); ++i) {
      if (in.pairs[i].doc != d) continue;
      auto result = xsq::dom::Evaluate(*dom, queries[in.pairs[i].query]);
      if (!result.ok()) {
        *error = "oracle: " + result.status().ToString();
        return {};
      }
      uint64_t h = Fnv1a("");
      for (const std::string& item : result->items) h = ItemsDigest(h, item);
      refs[i] = {h, result->aggregate};
    }
  }
  malloc_trim(0);  // the DOM trees are gone; keep them out of rss_mb
  return refs;
}

size_t PeakBufferedBytes(std::string_view xml, std::string_view query) {
  auto tape = xsq::tape::RecordDocument(xml);
  auto plan = xsq::core::CompilePlan(query);
  if (!tape.ok() || !plan.ok()) return 0;
  auto q = xsq::core::StreamingQuery::Open(*plan);
  if (!q.ok()) return 0;
  xsq::tape::Replay(*tape, (*q)->event_handler());
  (*q)->FinishEvents();
  return (*q)->peak_buffered_bytes();
}

bool ClusterReferences(const ClusterInputs& in, ClusterRef* ref,
                       std::string* error) {
  xsq::service::ServiceConfig config;
  config.num_workers = 1;
  config.doc_cache_capacity = 0;
  xsq::service::QueryService service(config);
  LineProtocol protocol(&service);
  std::string out;

  std::vector<std::string> sessions;
  for (const std::string& q : in.queries) {
    out.clear();
    protocol.HandleLine("OPEN " + q, &out);
    sessions.push_back(OpenedId(out));
    if (sessions.back().empty()) {
      *error = "reference OPEN " + q + ": " + out;
      return false;
    }
  }
  for (uint32_t d = 0; d < in.docs.size(); ++d) {
    ref->escaped.push_back(LineProtocol::Escape(in.docs[d].xml));
    out.clear();
    protocol.HandleLine("RECORD " + in.docs[d].name + " " + ref->escaped[d],
                        &out);
    ref->record.push_back(Fnv1a(out));
    for (uint32_t pick = 0; pick < kQueriesPerCorpus; ++pick) {
      const uint32_t q = QueryFor(d, pick);
      out.clear();
      protocol.HandleLine("RUNCACHED " + sessions[q] + " " + in.docs[d].name,
                          &out);
      if (out.rfind("ERR", 0) == 0 || out.find("\nERR") != std::string::npos) {
        *error = "reference RUNCACHED failed: " + out.substr(0, 200);
        return false;
      }
      ref->read[PairKey({d, q})] = Fnv1a(out);
      if (IsLatePredicate(q)) {
        ref->peak_buf_kb += PeakBufferedBytes(in.docs[d].xml, in.queries[q]) / 1024.0;
      }
    }
  }
  return true;
}

// ==================================================================== rigs

bool OpenStreamQueries(
    const StreamInputs& in,
    std::vector<std::unique_ptr<xsq::core::StreamingQuery>>* queries,
    std::string* error) {
  std::vector<std::shared_ptr<const xsq::core::CompiledPlan>> plans;
  for (const std::string& q : in.queries) {
    auto plan = xsq::core::CompilePlan(q);
    if (!plan.ok()) {
      *error = q + ": " + plan.status().ToString();
      return false;
    }
    plans.push_back(*plan);
  }
  queries->clear();
  for (const Pair& p : in.pairs) {
    auto q = xsq::core::StreamingQuery::Open(plans[p.query]);
    if (!q.ok()) {
      *error = in.queries[p.query] + ": " + q.status().ToString();
      return false;
    }
    queries->push_back(*std::move(q));
  }
  return true;
}

ClusterRig::~ClusterRig() {
  conns.clear();
  cluster.reset();
}

std::unique_ptr<ClusterRig> SetupCluster(const ClusterInputs& in,
                                         const ClusterRef& ref,
                                         RunResult* out, std::string* error) {
  auto rig = std::make_unique<ClusterRig>();
  rig->cluster = Cluster::Start(error);
  if (rig->cluster == nullptr) return nullptr;
  auto writer = Connect(rig->cluster->router_port());
  for (size_t d = 0; d < in.docs.size(); ++d) {
    auto reply = writer->Request("RECORD " + in.docs[d].name + " " + ref.escaped[d]);
    if (!CheckReply(reply, ref.record[d], "RECORD " + in.docs[d].name, out)) {
      *error = "setup RECORD " + in.docs[d].name + " failed";
      return nullptr;
    }
  }
  // Replicas are resident when every document sits on two shards. One
  // connection per shard, polled every millisecond.
  std::vector<std::unique_ptr<xsq::net::Client>> probes;
  for (int s = 0; s < Cluster::kShards; ++s) {
    probes.push_back(Connect(rig->cluster->shard_port(s)));
  }
  const int64_t give_up = NowNs() + 30'000'000'000;
  for (;;) {
    std::map<std::string, int> copies;
    for (auto& probe : probes) {
      for (const std::string& name : ResidentDocs(*probe)) ++copies[name];
    }
    size_t replicated = 0;
    for (const Document& d : in.docs) {
      if (copies[d.name] >= Cluster::kReplication) ++replicated;
    }
    if (replicated == in.docs.size()) break;
    if (NowNs() > give_up) {
      *error = "replicas not resident after 30 s";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int c = 0; c < kConnections; ++c) {
    rig->conns.push_back(Connect(rig->cluster->router_port()));
    rig->sessions.emplace_back();
    for (const std::string& q : in.queries) {
      auto reply = rig->conns.back()->Request("OPEN " + q);
      if (!CheckReply(reply, std::nullopt, "OPEN " + q, out)) {
        *error = "setup OPEN failed";
        return nullptr;
      }
      rig->sessions.back().push_back(reply->ok_payload);
    }
  }
  return rig;
}

void WarmCluster(const ClusterInputs& in, const ClusterRef& ref,
                 ClusterRig& rig, RunResult* out) {
  std::vector<RunResult> per(rig.conns.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < rig.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      for (uint32_t d = 0; d < in.docs.size(); ++d) {
        for (uint32_t pick = 0; pick < kQueriesPerCorpus; ++pick) {
          const Pair p{d, QueryFor(d, pick)};
          auto reply = rig.conns[c]->Request("RUNCACHED " + rig.sessions[c][p.query] +
                                             " " + in.docs[d].name);
          CheckReply(reply, ref.read.at(PairKey(p)),
                     "warm-up RUNCACHED " + in.docs[d].name, &per[c]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const RunResult& r : per) out->Absorb(r);
}

// ============================================================== load loops

void LoadResult::Append(const LoadResult& other) {
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(done.latency_ms, other.done.latency_ms);
  append(done.bytes, other.done.bytes);
  append(gap_ms, other.gap_ms);
  for (const auto& [key, v] : other.by_pair) {
    by_pair[key].first += v.first;
    by_pair[key].second += v.second;
  }
}

double LoadResult::MeanMs() const {
  double total = 0;
  for (const Timed& t : done.latency_ms) total += t.value;
  return done.latency_ms.empty() ? 0.0 : total / done.latency_ms.size();
}

namespace {

// Records one correct operation in `load`.
void Complete(LoadResult* load, Pair p, int64_t start_ns, int64_t t0, int64_t t1,
              double source_bytes) {
  const double ms = (t1 - t0) * 1e-6;
  load->done.Add((t1 - start_ns) * 1e-9, ms, source_bytes);
  auto& slot = load->by_pair[PairKey(p)];
  slot.first += ms;
  ++slot.second;
}

}  // namespace

bool EvaluateStreamPair(const StreamInputs& in, const std::vector<StreamRef>& refs,
                        xsq::core::StreamingQuery& q, uint32_t pi,
                        SpanRecorder* spans, uint64_t request, RunResult* out) {
  const Pair& p = in.pairs[pi];
  const std::string_view xml = in.docs[p.doc].xml;
  const size_t chunk = in.chunk_bytes;
  ++out->attempted;
  uint64_t h = Fnv1a("");
  q.Reset();
  xsq::Status status;
  if (spans == nullptr) {
    for (size_t off = 0; off < xml.size() && status.ok(); off += chunk) {
      status = q.Push(xml.substr(off, chunk));
      while (auto item = q.NextItem()) h = ItemsDigest(h, *item);
    }
    if (status.ok()) status = q.Close();
  } else {
    const uint64_t op = spans->Open("stream.op", 0, request, NowNs());
    TimingShim shim(q.event_handler());
    xsq::xml::SaxParser parser(&shim);
    const size_t chunks = (xml.size() + chunk - 1) / chunk;
    for (size_t k = 0; k <= chunks && status.ok(); ++k) {
      const int64_t a0 = shim.automaton_ns, b0 = shim.buffer_ns;
      const int64_t f0 = NowNs();
      status = k < chunks ? parser.Feed(xml.substr(k * chunk, chunk)) : parser.Finish();
      const int64_t f1 = NowNs();
      // The shim's callback times, folded into one child span per
      // layer and laid end to end from the start of the Feed.
      const uint64_t feed = spans->Add("xml.parse", op, request, f0, f1);
      const int64_t a = shim.automaton_ns - a0, b = shim.buffer_ns - b0;
      spans->Add("core.automaton", feed, request, f0, f0 + a);
      spans->Add("core.buffer", feed, request, f0 + a, f0 + a + b);
      while (auto item = q.NextItem()) h = ItemsDigest(h, *item);
    }
    if (status.ok()) status = q.FinishEvents();
    spans->Close(op, NowNs());
  }
  while (auto item = q.NextItem()) h = ItemsDigest(h, *item);
  // The oracle accepted every document, so an error status is a wrong
  // answer too.
  if (!status.ok()) {
    out->Fail(in.docs[p.doc].name + " x " + in.queries[p.query] + ": " +
                  status.ToString(),
              true);
    return false;
  }
  if (h != refs[pi].items_digest ||
      !SameAggregate(q.final_aggregate(), refs[pi].aggregate)) {
    out->Fail(in.docs[p.doc].name + " x " + in.queries[p.query] +
                  ": differs from the DOM oracle",
              true);
    return false;
  }
  return true;
}

void StreamLoop(const StreamInputs& in, const std::vector<StreamRef>& refs,
                const std::vector<std::unique_ptr<xsq::core::StreamingQuery>>& queries,
                int64_t start_ns, int64_t deadline_ns, size_t* cursor,
                SpanRecorder* spans, HostProbe* probe, LoadResult* load,
                RunResult* out) {
  int64_t last = 0;
  int64_t next_tick = 0;
  while (NowNs() < deadline_ns) {
    const uint32_t pi = in.order[(*cursor)++ % in.order.size()];
    const int64_t t0 = NowNs();
    if (last != 0) load->gap_ms.push_back((t0 - last) * 1e-6);
    const bool ok = EvaluateStreamPair(in, refs, *queries[pi], pi, spans, *cursor, out);
    const int64_t t1 = NowNs();
    if (ok) {
      Complete(load, in.pairs[pi], start_ns, t0, t1,
               in.docs[in.pairs[pi].doc].xml.size());
    }
    if (probe != nullptr && NowNs() >= next_tick) {
      probe->Tick(kStreamTickBytes);
      next_tick = NowNs() + kStreamTickEveryNs;
    }
    last = NowNs();
  }
}

std::vector<ReadStream> ReadStreams(const ClusterInputs& in, uint64_t seed) {
  std::vector<ReadStream> streams;
  for (int c = 0; c < kConnections; ++c) streams.emplace_back(in, seed, c);
  return streams;
}

void ReadLoop(const ClusterInputs& in, const ClusterRef& ref, ClusterRig& rig,
              std::vector<ReadStream>& streams, int conns, int64_t start_ns,
              int64_t deadline_ns, const std::atomic<bool>* stop,
              std::vector<SpanRecorder>* spans, LoadResult* load,
              RunResult* out) {
  std::vector<LoadResult> per(conns);
  std::vector<RunResult> fails(conns);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      int64_t last = 0;
      uint64_t request = 0;
      for (;;) {
        const Pair p = streams[c].Next();
        const std::string line = "RUNCACHED " + rig.sessions[c][p.query] + " " +
                                 in.docs[p.doc].name;
        const int64_t t0 = NowNs();
        if (t0 >= deadline_ns || (stop != nullptr && stop->load())) break;
        if (last != 0) per[c].gap_ms.push_back((t0 - last) * 1e-6);
        auto reply = rig.conns[c]->Request(line);
        const int64_t t1 = NowNs();
        last = t1;
        if (spans != nullptr) (*spans)[c].Add("cluster_read.request", 0, ++request, t0, t1);
        if (CheckReply(reply, ref.read.at(PairKey(p)), line.substr(0, 60), &fails[c])) {
          Complete(&per[c], p, start_ns, t0, t1, in.docs[p.doc].xml.size());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < conns; ++c) {
    load->Append(per[c]);
    out->Absorb(fails[c]);
  }
}

// =============================================================== workloads

namespace {

bool RunStream(const RunOptions& opt, RunResult* out) {
  const StreamInputs in = MakeStreamInputs(opt.seed);
  std::string error;
  const std::vector<StreamRef> refs = StreamReferences(in, &error);
  if (refs.empty()) {
    out->errors.push_back(error);
    return false;
  }

  // Set-up: compile every plan and open one query per pair. Half the
  // set-ups run before the window and half after it, so a slow spell
  // of the host at one end of the run does not set the median. Each
  // half is scaled by the probe ticks between its set-ups.
  HostProbe probe;
  std::vector<std::unique_ptr<xsq::core::StreamingQuery>> queries;
  std::vector<double> setups;
  const auto set_up = [&](int reps) {
    std::vector<double> batch;
    probe.Take();
    for (int rep = 0; rep < reps; ++rep) {
      const int64_t t0 = NowNs();
      if (!OpenStreamQueries(in, &queries, &error)) {
        out->errors.push_back(error);
        return false;
      }
      batch.push_back(SecondsSince(t0));
      probe.Tick(kStreamTickBytes);
    }
    const double scale = probe.Take().scale;
    for (double s : batch) setups.push_back(s * scale);
    return true;
  };
  if (!set_up(kStreamSetups / 2 + 1)) return false;

  // One untimed pass over every pair first, so first-use allocations
  // stay out of the window. Each query has then seen its document once,
  // which is when peak_buf_kb is read.
  for (uint32_t pi : in.order) EvaluateStreamPair(in, refs, *queries[pi], pi, nullptr, 0, out);
  double peak_kb = 0.0;
  for (uint32_t pi = 0; pi < in.pairs.size(); ++pi) {
    if (IsLatePredicate(in.pairs[pi].query)) {
      peak_kb += queries[pi]->peak_buffered_bytes() / 1024.0;
    }
  }

  RssSampler rss;
  LoadResult load;
  size_t cursor = 0;
  const CpuTicks ticks = ReadCpuTicks();
  const int64_t start = NowNs();
  const std::vector<Slice> slices =
      RunSliced(probe, start, opt.seconds, [&](int64_t deadline_ns) {
        StreamLoop(in, refs, queries, start, deadline_ns, &cursor, nullptr, &probe,
                   &load, out);
      });
  out->record["host_steal_share"] = std::to_string(StealShare(ticks, ReadCpuTicks()));
  const double rss_mb = rss.PeakMb();
  if (!set_up(kStreamSetups / 2)) return false;

  AddSetup(out, setups);
  out->Add("rss_mb", "MiB", rss_mb);
  AddThroughputAndLatency(out, load.done, slices);
  out->Add("peak_buf_kb", "KiB", peak_kb);
  out->record["load"] = "\"closed loop, in process, 1 thread\"";
  out->record["gen_gap_ms_p99"] =
      std::to_string(Percentile(load.gap_ms, 0.99).value_or(-1));
  return true;
}

bool RunClusterRead(const RunOptions& opt, RunResult* out) {
  const ClusterInputs in = MakeClusterInputs(opt.seed);
  ClusterRef ref;
  std::string error;
  if (!ClusterReferences(in, &ref, &error)) {
    out->errors.push_back(error);
    return false;
  }
  // Set-up, kClusterSetups times: the larger half before the window (the
  // last of these rigs serves the load), the rest after it, so a slow
  // spell of the host at one end of the run does not set the median.
  // Each set-up is scaled by probe ticks just before and after it.
  HostProbe probe;
  std::vector<double> setups;
  std::unique_ptr<ClusterRig> rig;
  const auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      rig.reset();
      probe.Take();
      probe.Tick(kClusterTickBytes, kConnections);
      const int64_t t0 = NowNs();
      rig = SetupCluster(in, ref, out, &error);
      if (rig == nullptr) {
        out->errors.push_back(error);
        return false;
      }
      const double took = SecondsSince(t0);
      probe.Tick(kClusterTickBytes, kConnections);
      setups.push_back(took * probe.Take().scale);
    }
    return true;
  };
  if (!set_up(kClusterSetups / 2 + 1)) return false;
  WarmCluster(in, ref, *rig, out);

  // The load pauses for a probe tick every kClusterTickS, so the
  // ticks run while every connection and daemon is idle.
  std::vector<ReadStream> streams = ReadStreams(in, opt.seed);
  LoadResult load;
  const CpuTicks ticks = ReadCpuTicks();
  const int64_t start = NowNs();
  const std::vector<Slice> slices =
      RunSliced(probe, start, opt.seconds, [&](int64_t deadline_ns) {
        while (NowNs() < deadline_ns) {
          probe.Tick(kClusterTickBytes, kConnections);
          const int64_t until =
              std::min(deadline_ns, NowNs() + static_cast<int64_t>(kClusterTickS * 1e9));
          ReadLoop(in, ref, *rig, streams, kConnections, start, until, nullptr, nullptr,
                   &load, out);
        }
      });
  out->record["host_steal_share"] = std::to_string(StealShare(ticks, ReadCpuTicks()));
  const double rss_mb = rig->cluster->PeakRssMb();
  if (!set_up(kClusterSetups / 2)) return false;

  AddSetup(out, setups);
  out->Add("rss_mb", "MiB", rss_mb);
  AddThroughputAndLatency(out, load.done, slices);
  out->Add("peak_buf_kb", "KiB", ref.peak_buf_kb);
  out->record["load"] = "\"closed loop, " + std::to_string(kConnections) +
                        " connections\"";
  out->record["gen_gap_ms_p99"] =
      std::to_string(Percentile(load.gap_ms, 0.99).value_or(-1));
  return true;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> EndToEndMetrics() {
  return {{"setup_s", "s"},    {"rss_mb", "MiB"}, {"ops_s", "1/s"},
          {"src_mb_s", "MB/s"}, {"p50_ms", "ms"},  {"p90_ms", "ms"},
          {"peak_buf_kb", "KiB"}};
}

bool RunWorkload(const RunOptions& opt, RunResult* out) {
  if (opt.workload == "stream") return RunStream(opt, out);
  if (opt.workload == "cluster_read") return RunClusterRead(opt, out);
  out->errors.push_back("unknown workload " + opt.workload);
  return false;
}

}  // namespace perfbench
