// The two workloads: their untraced runs and load loops (workloads.cc)
// and the traced run with its layer ladder (layers.cc), over shared
// plumbing. Each workload has one load loop, used by both runs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/streaming_query.h"
#include "host_probe.h"
#include "inputs.h"
#include "net/client.h"
#include "stats.h"
#include "trace.h"
#include "xml/sax_parser.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // trace files; empty = none written
};

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  // absent: too few samples
  size_t samples = 0;           // sample count behind a percentile
};

// What a run reports. `record` holds extra run-record fields as
// preformatted JSON values.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;    // operations that did not give the reference answer
  uint64_t wrong = 0;     // among `failed`: an answer arrived and differed
  std::vector<Metric> metrics;
  std::map<std::string, std::string> record;
  std::vector<std::string> errors;  // the first few failures

  void Add(const std::string& name, const std::string& unit,
           std::optional<double> value, size_t samples = 0) {
    metrics.push_back({name, unit, value, samples});
  }
  void Fail(const std::string& what, bool wrong_answer);
  // Adds another result's operation counts and errors to this one.
  void Absorb(const RunResult& other);
};

// Set-ups per run; setup_s is their median. A cluster set-up takes
// about 0.2 s and a stream set-up about 0.1 ms, so the cheaper one
// repeats more to steady the median.
inline constexpr int kClusterSetups = 9;
inline constexpr int kStreamSetups = 201;
// Closed-loop connections (nproc of the reference machine).
inline constexpr int kConnections = 4;
// Host probe ticks (host_probe.h): stream runs one after an evaluation
// once kStreamTickEveryNs have passed since the last; cluster_read
// pauses its connections every kClusterTickS for one on kConnections
// threads. Ticks take 3-7% of the window.
inline constexpr size_t kStreamTickBytes = 32 << 10;
inline constexpr int64_t kStreamTickEveryNs = 2'000'000;
inline constexpr size_t kClusterTickBytes = 1 << 20;
inline constexpr double kClusterTickS = 0.25;

// --- shared helpers --------------------------------------------------------

// A net::Client for one connection: no automatic retries, so every
// transport failure is counted.
std::unique_ptr<xsq::net::Client> Connect(uint16_t port);

// FNV-1a of a reply block exactly as the wire carries it (payload
// lines, then the terminator), comparable with Fnv1a of the text an
// in-process LineProtocol appends.
uint64_t BlockDigest(const xsq::net::Response& reply);

// Counts one command in `out` and checks its reply against the
// in-process reference: true when the reply block's digest is
// `expected`, or, without one, when the reply is OK. A transport
// failure counts as failed; any other block, ERR included, as a wrong
// answer, because the reference answered the same command with OK.
bool CheckReply(const xsq::Result<xsq::net::Response>& reply,
                std::optional<uint64_t> expected, const std::string& what,
                RunResult* out);

// The completed operations of a measured window: latency (ms) and
// source bytes, each stamped with its completion time.
struct Completed {
  std::vector<Timed> latency_ms;
  std::vector<Timed> bytes;
  void Add(double at_s, double ms, double source_bytes) {
    latency_ms.push_back({at_s, ms});
    bytes.push_back({at_s, source_bytes});
  }
};

// Adds ops_s, src_mb_s, p50_ms and p90_ms over `slices`, at the
// reference host's speed (host_probe.h); the run record keeps them as
// measured too.
void AddThroughputAndLatency(RunResult* out, const Completed& done,
                             const std::vector<Slice>& slices);

// Peak RSS of this process so far: VmRSS sampled by a background
// thread (VmHWM would include the reference computation).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double PeakMb() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

double CurrentRssMb();

// The machine's CPU time, from the "cpu" line of /proc/stat, in ticks:
// the part a hypervisor stole (another guest ran), and all of it. Steal
// makes whole runs slow on a shared virtual machine, so each run records
// the share stolen during its window.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& before, const CpuTicks& after);

// Times the engine's callbacks: begin/end events are the automaton,
// text events the buffer layer (candidate buffering, predicates, item
// upload), as in the paper's Figure 18 split.
class TimingShim : public xsq::xml::SaxHandler {
 public:
  explicit TimingShim(xsq::xml::SaxHandler* inner) : inner_(inner) {}
  void OnDocumentBegin() override { inner_->OnDocumentBegin(); }
  void OnDoctype(std::string_view n, std::string_view s) override {
    inner_->OnDoctype(n, s);
  }
  void OnBegin(std::string_view tag, const std::vector<xsq::xml::Attribute>& a,
               int depth) override;
  void OnEnd(std::string_view tag, int depth) override;
  void OnText(std::string_view tag, std::string_view text, int depth) override;
  void OnDocumentEnd() override;

  int64_t automaton_ns = 0;
  int64_t buffer_ns = 0;
  uint64_t element_events = 0;
  uint64_t text_events = 0;

 private:
  xsq::xml::SaxHandler* inner_;
};

// --- references, computed before any timing starts ------------------------

struct StreamRef {
  uint64_t items_digest = 0;
  std::optional<double> aggregate;
};
// DOM-oracle answers for every stream pair, in `in.pairs` order.
std::vector<StreamRef> StreamReferences(const StreamInputs& in,
                                        std::string* error);

// Reply-block digests from an in-process net::LineProtocol over a
// service::QueryService, for every command cluster_read sends.
struct ClusterRef {
  std::vector<std::string> escaped;   // per doc, line-escaped
  std::vector<uint64_t> record;       // per doc: RECORD block
  std::map<uint64_t, uint64_t> read;  // PairKey -> RUNCACHED block
  double peak_buf_kb = 0.0;
};
inline uint64_t PairKey(Pair p) { return (uint64_t{p.doc} << 32) | p.query; }
bool ClusterReferences(const ClusterInputs& in, ClusterRef* ref,
                       std::string* error);

// Engine peak buffered bytes for `query` over `xml`, via tape replay.
size_t PeakBufferedBytes(std::string_view xml, std::string_view query);

// --- rigs ------------------------------------------------------------------

// Compiles every stream query and opens one StreamingQuery per pair,
// in `in.pairs` order: the stream workload's set-up.
bool OpenStreamQueries(
    const StreamInputs& in,
    std::vector<std::unique_ptr<xsq::core::StreamingQuery>>* queries,
    std::string* error);

class Cluster;

// A cluster with the corpus RECORDed, replicas resident, and one
// router session per query on each of kConnections connections.
struct ClusterRig {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<xsq::net::Client>> conns;
  std::vector<std::vector<std::string>> sessions;  // [conn][query]
  ~ClusterRig();
};
std::unique_ptr<ClusterRig> SetupCluster(const ClusterInputs& in,
                                         const ClusterRef& ref,
                                         RunResult* out, std::string* error);

// Sends every served (document, query) pair once on every connection,
// checked, before any timing: it binds each router session on each
// owner shard and warms the caches, so lazy set-up stays out of the
// measured window.
void WarmCluster(const ClusterInputs& in, const ClusterRef& ref,
                 ClusterRig& rig, RunResult* out);

// --- the load loops --------------------------------------------------------

// What a stretch of load hands back: every correct operation, the
// gaps between a reply and the next send on the same connection, and
// per-pair totals (PairKey -> summed ms, count).
struct LoadResult {
  Completed done;
  std::vector<double> gap_ms;
  std::map<uint64_t, std::pair<double, size_t>> by_pair;

  void Append(const LoadResult& other);
  double MeanMs() const;
};

// One stream evaluation of pair `pi`, counted in `out` and checked
// against the DOM oracle; true when correct. Untraced, the document is
// pushed through StreamingQuery::Push in in.chunk_bytes chunks. With
// `spans`, a harness-owned SaxParser feeds the same chunks through a
// TimingShim into event_handler(), and the evaluation records
// stream.op -> xml.parse -> core.automaton / core.buffer spans.
bool EvaluateStreamPair(const StreamInputs& in, const std::vector<StreamRef>& refs,
                        xsq::core::StreamingQuery& q, uint32_t pi,
                        SpanRecorder* spans, uint64_t request, RunResult* out);

// The stream workload's load: one thread evaluating the pairs of
// `in.order`, cycling from *cursor, until `deadline_ns`. Completion
// times are stamped from `start_ns`. With `probe`, probe ticks run
// between evaluations.
void StreamLoop(const StreamInputs& in, const std::vector<StreamRef>& refs,
                const std::vector<std::unique_ptr<xsq::core::StreamingQuery>>& queries,
                int64_t start_ns, int64_t deadline_ns, size_t* cursor,
                SpanRecorder* spans, HostProbe* probe, LoadResult* load,
                RunResult* out);

// One ReadStream per closed-loop connection.
std::vector<ReadStream> ReadStreams(const ClusterInputs& in, uint64_t seed);

// The cluster_read workload's load: connections 0..conns-1 each send
// RUNCACHED for their stream's pairs until `deadline_ns` or `*stop`,
// every reply checked against `ref`. With `spans` (one recorder per
// connection), each request gets a span.
void ReadLoop(const ClusterInputs& in, const ClusterRef& ref, ClusterRig& rig,
              std::vector<ReadStream>& streams, int conns, int64_t start_ns,
              int64_t deadline_ns, const std::atomic<bool>* stop,
              std::vector<SpanRecorder>* spans, LoadResult* load,
              RunResult* out);

// --- entry points ----------------------------------------------------------

bool RunWorkload(const RunOptions& options, RunResult* out);
bool RunTraced(const RunOptions& options, RunResult* out);

// Names and units of every metric, per run kind, in report order.
std::vector<std::pair<std::string, std::string>> EndToEndMetrics();
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
