// Extension experiment: network front-end guarantees, enforced by exit
// status. The TCP serving path (src/net/) promises that
//
//   (a) a connection abandoned mid-query has its evaluation cancelled
//       promptly: the engine-side stop is bounded by 2x the
//       cancellation sampling interval (CancelToken's grain, in SAX
//       events), and the end-to-end reclaim — disconnect propagation
//       through the poll thread plus the engine stop — completes in a
//       small fraction of what the full evaluation would have cost;
//   (b) GET /metrics served over HTTP/1.0 on the protocol port is the
//       same exposition as the METRICS verb (identical metric-name
//       sequence; values may move between the two scrapes);
//   (c) accept-side load shedding is lossless for clients that retry:
//       under deliberate connection starvation every net::Client with
//       backoff retries eventually succeeds, while the shed counter
//       records the turned-away attempts.
//
// Any violated bound fails the run (exit status 1).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/timing.h"
#include "core/cancel_token.h"
#include "daemon_rig.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "net/server.h"
#include "service/query_service.h"
#include "tape/recorder.h"

namespace xsq::bench {
namespace {

using net::Client;
using net::ClientConfig;
using net::LineProtocol;
using net::Server;
using net::ServerConfig;
using service::QueryService;
using service::ServiceConfig;

constexpr const char* kQuery = "/dblp/article/title/text()";
constexpr size_t kChunkBytes = 256 * 1024;  // per PUSH line

// Minimal blocking socket for fault-shaped interactions (net::Client
// deliberately cannot vanish mid-request).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0;
    timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }
  bool ok() const { return ok_; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool SendAll(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }
  std::string ReadLines(size_t lines) {
    std::string out;
    size_t seen = 0;
    char buf[8192];
    while (seen < lines) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i) seen += buf[i] == '\n';
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }
  std::string ReadAll() {
    std::string out;
    char buf[8192];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
};

// The wire form of one document evaluation on an already-open session:
// the document as escaped PUSH chunks, then CLOSE. `chunks` returns
// the PUSH count.
std::string WireDocument(const std::string& doc, const std::string& id,
                         size_t* chunks) {
  std::string wire;
  *chunks = 0;
  for (size_t pos = 0; pos < doc.size(); pos += kChunkBytes) {
    std::string_view chunk(doc.data() + pos,
                           std::min(kChunkBytes, doc.size() - pos));
    wire += "PUSH " + id + " " + LineProtocol::Escape(chunk) + "\n";
    ++*chunks;
  }
  wire += "CLOSE " + id + "\n";
  return wire;
}

// OPEN on a fresh raw connection; returns the session id ("" on error).
std::string OpenSession(RawConn* conn) {
  if (!conn->SendAll("OPEN " + std::string(kQuery) + "\n")) return "";
  std::string ack = conn->ReadLines(1);
  if (ack.rfind("OK ", 0) != 0) return "";
  return ack.substr(3, ack.find('\n') - 3);
}

// ------------------------------------------------------- (a) cancel bound

int DisconnectCancelLatency(const std::string& doc, bool* within_bound) {
  std::printf("\n(a) Disconnect-to-cancel latency on a %s document\n",
              FormatBytes(doc.size()).c_str());

  ServiceConfig service_config;
  service_config.num_workers = 2;
  QueryService service(service_config);
  ServerConfig server_config;
  auto created = Server::Create(&service, server_config);
  if (!created.ok()) return 1;
  std::unique_ptr<Server> server = *std::move(created);

  // Event count of the document, to convert the sampling interval from
  // events into wall-clock time at this run's throughput.
  auto tape = tape::RecordDocument(doc);
  if (!tape.ok()) return 1;
  const uint64_t events = tape->event_count();

  // Baseline: the full evaluation, answered and read to completion.
  double full_seconds = 0.0;
  size_t chunks = 0;
  {
    RawConn conn(server->port());
    if (!conn.ok()) return 1;
    std::string id = OpenSession(&conn);
    if (id.empty()) return 1;
    const std::string wire = WireDocument(doc, id, &chunks);
    auto start = std::chrono::steady_clock::now();
    if (!conn.SendAll(wire)) return 1;
    std::string all = conn.ReadLines(chunks);  // the PUSH acks
    conn.SendAll("QUIT\n");
    all += conn.ReadAll();  // ITEMs + CLOSE OK + QUIT OK, until EOF
    full_seconds = Seconds(start);
    if (all.rfind("ERR", 0) == 0 || all.find("\nERR") != std::string::npos) {
      std::fprintf(stderr, "baseline evaluation failed:\n%s\n",
                   all.substr(0, 400).c_str());
      return 1;
    }
  }

  // Propagation floor: disconnect with the session idle — no engine
  // work in flight — measures the poll-thread wake + teardown +
  // release path alone.
  const uint64_t cancels_before_idle = service.stats().disconnect_cancels;
  double idle_reclaim_seconds = 0.0;
  {
    RawConn conn(server->port());
    if (!conn.ok()) return 1;
    if (!conn.SendAll("OPEN " + std::string(kQuery) + "\n")) return 1;
    conn.ReadLines(1);
    auto start = std::chrono::steady_clock::now();
    conn.Close();
    if (!WaitFor([&] { return service.active_sessions() == 0; }, 5000)) {
      std::fprintf(stderr, "idle session never reclaimed\n");
      return 1;
    }
    idle_reclaim_seconds = Seconds(start);
  }

  // Abandoned run: send the whole evaluation, wait until the service is
  // verifiably mid-document (some chunks evaluated, several still
  // queued), then vanish. The poll thread must cancel the in-flight
  // work and the session must be reclaimed without the evaluation
  // running out. The disconnect can race past the evaluation's tail,
  // so the run retries until the cancel demonstrably landed mid-work.
  double abandoned_seconds = 0.0;
  bool was_cancelled = false;
  constexpr int kMaxAttempts = 5;
  for (int attempt = 0; attempt < kMaxAttempts && !was_cancelled; ++attempt) {
    const uint64_t cancelled_before = service.stats().cancelled;
    const uint64_t processed_before = service.stats().chunks_processed;
    RawConn conn(server->port());
    if (!conn.ok()) return 1;
    std::string id = OpenSession(&conn);
    if (id.empty()) return 1;
    size_t n = 0;
    if (!conn.SendAll(WireDocument(doc, id, &n))) return 1;
    // Mid-document: at least one chunk evaluated, at least a quarter
    // still unevaluated. If the evaluation outruns us, retry.
    bool mid_stream = WaitFor(
        [&] {
          uint64_t done = service.stats().chunks_processed - processed_before;
          return done >= 1;
        },
        5000);
    mid_stream = mid_stream &&
                 service.stats().chunks_processed - processed_before <
                     n - n / 4;
    auto start = std::chrono::steady_clock::now();
    conn.Close();
    if (!WaitFor([&] { return service.active_sessions() == 0; }, 10000)) {
      std::fprintf(stderr, "abandoned session never reclaimed\n");
      return 1;
    }
    abandoned_seconds = Seconds(start);
    was_cancelled =
        mid_stream && service.stats().cancelled > cancelled_before;
  }
  if (service.stats().disconnect_cancels <= cancels_before_idle) {
    std::fprintf(stderr, "disconnect cancels were not counted\n");
    return 1;
  }

  // Bound: the engine-side stop is <= 2x the sampling interval
  // (ext_resilience leg (b) enforces that at event granularity); here
  // the end-to-end reclaim must fit the propagation floor plus the
  // interval converted to wall clock at this run's event rate, plus a
  // scheduling allowance for the worker thread handing back control —
  // and, the actual robustness claim, far under the full evaluation.
  const uint32_t interval = core::CancelToken::kCheckIntervalEvents;
  const double seconds_per_event = full_seconds / static_cast<double>(events);
  const double interval_seconds = interval * seconds_per_event;
  constexpr double kSchedulingAllowance = 0.025;  // 25ms
  const double bound =
      idle_reclaim_seconds + 2.0 * interval_seconds + kSchedulingAllowance;
  *within_bound = was_cancelled && abandoned_seconds <= bound &&
                  abandoned_seconds < full_seconds * 0.5;

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"document events", std::to_string(events)});
  table.AddRow({"full evaluation (ms)", FormatDouble(full_seconds * 1e3, 1)});
  table.AddRow({"sampling interval (events)", std::to_string(interval)});
  table.AddRow(
      {"2x interval, wall clock (us)", FormatDouble(2e6 * interval_seconds, 2)});
  table.AddRow({"idle reclaim floor (ms)",
                FormatDouble(idle_reclaim_seconds * 1e3, 2)});
  table.AddRow({"abandoned reclaim (ms)",
                FormatDouble(abandoned_seconds * 1e3, 2)});
  table.AddRow({"cancelled via disconnect", was_cancelled ? "yes" : "no"});
  table.Print();
  std::printf(
      "bound: reclaim <= floor + 2x interval + 25ms sched (%.1fms), and < "
      "50%% of full -> %s\n",
      bound * 1e3, *within_bound ? "PASS" : "FAIL");

  server->Stop();
  service.Shutdown();
  return 0;
}

// ------------------------------------------- (b) scrape path equivalence

// The metric-name sequence (name plus label set, the part dashboards
// key on) must be identical between the METRICS verb and GET /metrics;
// values may move between the two scrapes.
std::vector<std::string> MetricNames(const std::vector<std::string>& lines) {
  std::vector<std::string> names;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    size_t space = line.find(' ');
    std::string head = line.substr(0, space);
    if (head == "#") {
      // Comment lines (# HELP / # TYPE / # exemplar) carry no values
      // that move between back-to-back scrapes: compare them whole.
      names.push_back(line);
    } else {
      names.push_back(head);
    }
  }
  return names;
}

int ScrapeEquivalence(bool* equivalent) {
  std::printf("\n(b) GET /metrics vs METRICS verb\n");
  ServiceConfig service_config;
  QueryService service(service_config);
  auto created = Server::Create(&service, ServerConfig());
  if (!created.ok()) return 1;
  std::unique_ptr<Server> server = *std::move(created);

  // Populate both engines' series and the exemplar store.
  ClientConfig client_config;
  client_config.port = server->port();
  Client client(client_config);
  for (const char* query : {"/r/a/text()", "//a/text()"}) {
    auto open = client.Request(std::string("OPEN ") + query);
    if (!open.ok() || !open->status.ok()) return 1;
    client.Request("PUSH " + open->ok_payload + " <r><a>v</a></r>");
    client.Request("CLOSE " + open->ok_payload);
  }

  auto verb = client.Request("METRICS");
  if (!verb.ok() || !verb->status.ok()) return 1;
  std::vector<std::string> verb_lines;
  for (const std::string& line : verb->lines) {
    if (line.rfind("METRIC ", 0) != 0) return 1;
    verb_lines.push_back(line.substr(7));
  }

  RawConn conn(server->port());
  if (!conn.ok()) return 1;
  if (!conn.SendAll("GET /metrics HTTP/1.0\r\n\r\n")) return 1;
  std::string response = conn.ReadAll();
  size_t body_at = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 ||
      body_at == std::string::npos) {
    std::fprintf(stderr, "bad HTTP response\n");
    return 1;
  }
  std::vector<std::string> http_lines;
  for (size_t begin = body_at + 4; begin < response.size();) {
    size_t end = response.find('\n', begin);
    if (end == std::string::npos) end = response.size();
    http_lines.push_back(response.substr(begin, end - begin));
    begin = end + 1;
  }
  if (!http_lines.empty() && http_lines.back().empty()) {
    http_lines.pop_back();
  }

  std::vector<std::string> verb_names = MetricNames(verb_lines);
  std::vector<std::string> http_names = MetricNames(http_lines);
  size_t first_diff = 0;
  while (first_diff < verb_names.size() && first_diff < http_names.size() &&
         verb_names[first_diff] == http_names[first_diff]) {
    ++first_diff;
  }
  *equivalent = verb_names == http_names && !verb_names.empty();

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"verb exposition lines", std::to_string(verb_lines.size())});
  table.AddRow({"http exposition lines", std::to_string(http_lines.size())});
  std::string divergence = "none";
  if (!*equivalent) {
    divergence = first_diff < verb_names.size() ? verb_names[first_diff]
                                                : "(length)";
  }
  table.AddRow({"first name divergence", divergence});
  table.Print();
  std::printf("bound: identical metric-name sequence -> %s\n",
              *equivalent ? "PASS" : "FAIL");

  server->Stop();
  service.Shutdown();
  return 0;
}

// ---------------------------------------------- (c) shed + retry recovery

int ShedRecovery(bool* lossless) {
  std::printf("\n(c) Load shedding with client retries\n");
  ServiceConfig service_config;
  service_config.num_workers = 2;
  QueryService service(service_config);
  ServerConfig server_config;
  server_config.max_connections = 2;  // deliberate starvation
  auto created = Server::Create(&service, server_config);
  if (!created.ok()) return 1;
  std::unique_ptr<Server> server = *std::move(created);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> succeeded{0};
  std::atomic<int> total_attempts{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig config;
      config.port = server->port();
      config.max_retries = 10;
      config.backoff_base_ms = 5;
      config.backoff_max_ms = 100;
      config.retry_seed = static_cast<uint64_t>(c + 1);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Client client(config);  // fresh connection per request: churn
        auto response = client.Request("STATS");
        if (response.ok() && response->status.ok()) {
          succeeded.fetch_add(1);
          total_attempts.fetch_add(response->attempts);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const uint64_t shed = service.stats().connections_shed;
  const int expected = kClients * kRequestsPerClient;
  *lossless = succeeded.load() == expected;

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"clients x requests", std::to_string(expected)});
  table.AddRow({"succeeded", std::to_string(succeeded.load())});
  table.AddRow({"total attempts", std::to_string(total_attempts.load())});
  table.AddRow({"connections shed", std::to_string(shed)});
  table.Print();
  std::printf("bound: every request eventually succeeds -> %s\n",
              *lossless ? "PASS" : "FAIL");

  server->Stop();
  service.Shutdown();
  return 0;
}

int Main() {
  PrintHeader("Extension: net",
              "disconnect-to-cancel latency + scrape equivalence + shed "
              "recovery");
  std::string xml = datagen::GenerateDblp(ScaledBytes(12u << 20), 3);

  bool cancel_ok = false;
  bool scrape_ok = false;
  bool shed_ok = false;
  if (DisconnectCancelLatency(xml, &cancel_ok) != 0) return 1;
  if (ScrapeEquivalence(&scrape_ok) != 0) return 1;
  if (ShedRecovery(&shed_ok) != 0) return 1;

  std::printf(
      "\nExpected shape: an abandoned connection's evaluation stops within\n"
      "the propagation floor plus 2x the %u-event sampling interval (and\n"
      "well under the full evaluation); the HTTP scrape and the METRICS\n"
      "verb expose the same metric families; shed clients with jittered\n"
      "backoff retries lose no requests.\n",
      core::CancelToken::kCheckIntervalEvents);
  return cancel_ok && scrape_ok && shed_ok ? 0 : 1;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
