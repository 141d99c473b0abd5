// Tests for the TCP front-end: net::LineProtocol, net::Server,
// net::Client — protocol parity with the stdin transport, bounded
// buffers, idle reaping, load shedding, disconnect-driven cancellation,
// the GET /metrics scrape path, client retries, and a concurrent soak
// with injected faults (mid-query disconnects, half-open peers,
// oversized lines, slow readers).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <mutex>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoints.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "net/server.h"
#include "service/query_service.h"

namespace xsq {
namespace {

using net::Client;
using net::ClientConfig;
using net::LineProtocol;
using net::Server;
using net::ServerConfig;
using service::QueryService;
using service::ServiceConfig;

// ---------------------------------------------------------------------------
// Raw blocking socket, for the fault-shaped interactions net::Client
// deliberately cannot produce (abrupt disconnects, half-open peers,
// unread floods, oversized lines).
class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval tv{5, 0};  // reads bounded so a server bug fails, not hangs
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawSocket() { Close(); }

  bool connected() const { return connected_; }

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

  // Reads until `lines` newline-terminated lines arrived or EOF/timeout.
  std::string ReadLines(size_t lines) {
    std::string out;
    size_t seen = 0;
    char buf[4096];
    while (seen < lines) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] == '\n') ++seen;
      }
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  // Reads to EOF (or the receive timeout).
  std::string ReadAll() {
    std::string out;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  // True when the server has closed its side (recv returns 0).
  bool AtEof() {
    char buf[256];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout: still open
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

struct Harness {
  explicit Harness(ServiceConfig service_config = ServiceConfig(),
                   ServerConfig server_config = ServerConfig()) {
    service = std::make_unique<QueryService>(service_config);
    auto created = Server::Create(service.get(), server_config);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    server = *std::move(created);
  }
  ~Harness() {
    server->Stop();
    service->Shutdown();
  }

  ClientConfig client_config() const {
    ClientConfig config;
    config.port = server->port();
    return config;
  }

  // Spins (bounded) until `predicate` holds; returns whether it did.
  template <typename Predicate>
  bool WaitFor(Predicate predicate, int timeout_ms = 5000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
  }

  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;
};

// A document big enough that its evaluation spans many cancellation
// sampling intervals.
std::string BigDocument(int elements) {
  std::string doc = "<r>";
  for (int i = 0; i < elements; ++i) {
    doc += "<a><b>payload text that the engine has to scan ";
    doc += std::to_string(i);
    doc += "</b></a>";
  }
  doc += "</r>";
  return doc;
}

// ---------------------------------------------------------------------------
// Protocol parity and basic serving.

TEST(NetServerTest, ServesTheLineProtocol) {
  Harness harness;
  Client client(harness.client_config());

  auto open = client.Request("OPEN //a/text()");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->status.ok());
  const std::string id = open->ok_payload;
  EXPECT_FALSE(id.empty());

  auto push = client.Request("PUSH " + id + " <r><a>one</a><a>two</a></r>");
  ASSERT_TRUE(push.ok());
  EXPECT_TRUE(push->status.ok());

  auto close = client.Request("CLOSE " + id);
  ASSERT_TRUE(close.ok());
  EXPECT_TRUE(close->status.ok());
  ASSERT_EQ(close->lines.size(), 2u);
  EXPECT_EQ(close->lines[0], "ITEM one");
  EXPECT_EQ(close->lines[1], "ITEM two");
}

TEST(NetServerTest, SocketTranscriptMatchesStdinTranscript) {
  // The same commands through a LineProtocol directly (the stdin path)
  // and through the socket must produce identical bytes.
  Harness harness;
  const std::string commands[] = {"OPEN //a/text()",
                                  // No DRAIN here: its reply depends on
                                  // whether the async evaluation has
                                  // produced the item yet, so it is not
                                  // transcript-deterministic.
                                  "PUSH 1 <r><a>hi</a></r>",
                                  "CLOSE 1", "STATS"};

  std::string expected;
  {
    QueryService local_service{ServiceConfig()};
    LineProtocol local(&local_service);
    for (const std::string& command : commands) {
      local.HandleLine(command, &expected);
    }
  }

  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  std::string wire;
  for (const std::string& command : commands) wire += command + "\n";
  ASSERT_TRUE(raw.SendAll(wire));
  // Expected replies: OK 1 / OK / ITEM hi + OK / (CLOSE: no items left) OK /
  // STAT block + OK. Count lines in `expected` to know what to read.
  size_t expected_lines = 0;
  for (char c : expected) expected_lines += c == '\n';
  std::string actual = raw.ReadLines(expected_lines);
  // The STAT block differs in connection counters (the socket path
  // accepted a connection; the local path did not), so compare only up
  // to the stats block's first divergence-free prefix: every line
  // before "STAT connections_accepted".
  size_t cut_expected = expected.find("STAT connections_accepted");
  size_t cut_actual = actual.find("STAT connections_accepted");
  ASSERT_NE(cut_expected, std::string::npos);
  ASSERT_NE(cut_actual, std::string::npos);
  EXPECT_EQ(actual.substr(0, cut_actual), expected.substr(0, cut_expected));
}

TEST(NetServerTest, PipelinedCommandsAnswerInOrder) {
  Harness harness;
  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(
      raw.SendAll("OPEN //a/text()\nPUSH 1 <r><a>x</a></r>\nCLOSE 1\nQUIT\n"));
  std::string replies = raw.ReadAll();
  EXPECT_EQ(replies, "OK 1\nOK\nITEM x\nOK\nOK\n");
  EXPECT_TRUE(raw.AtEof());
}

TEST(NetServerTest, QuitClosesTheConnection) {
  Harness harness;
  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.SendAll("QUIT\n"));
  EXPECT_EQ(raw.ReadAll(), "OK\n");
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.server->connection_count() == 0; }));
}

TEST(NetServerTest, UnknownVerbAnswersErrAndKeepsServing) {
  Harness harness;
  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.SendAll("FROB 1\nSTATS\nQUIT\n"));
  std::string replies = raw.ReadAll();
  EXPECT_NE(replies.find("ERR InvalidArgument: unknown command 'FROB'"),
            std::string::npos);
  EXPECT_NE(replies.find("STAT sessions_opened"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bounded buffers and deadlines.

TEST(NetServerTest, OversizedLineAnswersErrAndCloses) {
  ServerConfig server_config;
  server_config.max_line_bytes = 128;
  Harness harness(ServiceConfig(), server_config);

  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  std::string big(4096, 'x');
  ASSERT_TRUE(raw.SendAll("PUSH 1 " + big + "\n"));
  std::string replies = raw.ReadAll();
  EXPECT_NE(replies.find("ERR LimitExceeded: line exceeds --max-line-bytes="),
            std::string::npos);
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->stats().net_overrun_closed == 1; }));
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.server->connection_count() == 0; }));
}

TEST(NetServerTest, IdleConnectionIsReaped) {
  ServerConfig server_config;
  server_config.idle_timeout_ms = 100;
  Harness harness(ServiceConfig(), server_config);

  RawSocket raw(harness.server->port());  // half-open peer: never speaks
  ASSERT_TRUE(raw.connected());
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->stats().net_idle_closed == 1; }));
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.server->connection_count() == 0; }));
  EXPECT_TRUE(raw.AtEof());
}

TEST(NetServerTest, SlowReaderHitsOutputBoundAndIsClosed) {
  ServerConfig server_config;
  server_config.max_output_buffer_bytes = 2048;
  Harness harness(ServiceConfig(), server_config);

  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  // Ask for many METRICS blocks without ever reading: the kernel socket
  // buffer fills, the server-side output buffer hits its bound.
  std::string flood;
  for (int i = 0; i < 64; ++i) flood += "METRICS\n";
  ASSERT_TRUE(raw.SendAll(flood));
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->stats().net_overrun_closed >= 1; }));
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.server->connection_count() == 0; }));
}

// ---------------------------------------------------------------------------
// Load shedding.

TEST(NetServerTest, ProtocolConnectionBeyondMaxConnectionsIsShed) {
  ServerConfig server_config;
  server_config.max_connections = 1;
  Harness harness(ServiceConfig(), server_config);

  RawSocket holder(harness.server->port());
  ASSERT_TRUE(holder.connected());
  ASSERT_TRUE(holder.SendAll("STATS\n"));
  holder.ReadLines(1);  // make sure the server registered the connection

  // The shed decision lands when the transport is sniffed, not at
  // accept: the TCP connect succeeds, and the first protocol line draws
  // the shed ERR plus a close. (An HTTP probe on the same socket would
  // have been served; see HttpProbesAreServedWhileShedding.)
  RawSocket shed(harness.server->port());
  ASSERT_TRUE(shed.connected());
  ASSERT_TRUE(shed.SendAll("STATS\n"));
  std::string reply = shed.ReadAll();
  EXPECT_NE(reply.find("ERR ResourceExhausted"), std::string::npos);
  EXPECT_TRUE(shed.AtEof());
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->stats().connections_shed == 1; }));
  // The held connection is untouched.
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.server->connection_count() == 1; }));
  ASSERT_TRUE(holder.SendAll("STATS\n"));
  EXPECT_NE(holder.ReadLines(1).find("STAT"), std::string::npos);
}

TEST(NetServerTest, SaturatedServiceShedsNewProtocolConnections) {
  ServiceConfig service_config;
  service_config.max_sessions = 1;
  Harness harness(service_config);

  Client client(harness.client_config());
  auto open = client.Request("OPEN //a");
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(open->status.ok());  // the only session slot is now taken

  RawSocket shed(harness.server->port());
  ASSERT_TRUE(shed.connected());
  ASSERT_TRUE(shed.SendAll("STATS\n"));
  EXPECT_NE(shed.ReadAll().find("ERR ResourceExhausted"), std::string::npos);
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->stats().connections_shed >= 1; }));
}

TEST(NetServerTest, HttpProbesAreServedWhileShedding) {
  // The satellite fix this pins: health probes must not be casualties
  // of the capacity limit they exist to report. With the server at
  // max_connections, a protocol newcomer is shed, but GET /healthz and
  // GET /metrics on the very same port are answered (503/200), never
  // closed raw.
  ServerConfig server_config;
  server_config.max_connections = 1;
  Harness harness(ServiceConfig(), server_config);

  RawSocket holder(harness.server->port());
  ASSERT_TRUE(holder.connected());
  ASSERT_TRUE(holder.SendAll("STATS\n"));
  holder.ReadLines(1);

  RawSocket shed(harness.server->port());
  ASSERT_TRUE(shed.connected());
  ASSERT_TRUE(shed.SendAll("STATS\n"));
  EXPECT_NE(shed.ReadAll().find("ERR ResourceExhausted"), std::string::npos);

  RawSocket probe(harness.server->port());
  ASSERT_TRUE(probe.connected());
  ASSERT_TRUE(probe.SendAll("GET /healthz HTTP/1.0\r\n\r\n"));
  std::string healthz = probe.ReadAll();
  EXPECT_EQ(healthz.rfind("HTTP/1.0 503", 0), 0u) << healthz;
  EXPECT_NE(healthz.find("shedding"), std::string::npos) << healthz;

  RawSocket scrape(harness.server->port());
  ASSERT_TRUE(scrape.connected());
  ASSERT_TRUE(scrape.SendAll("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string metrics = scrape.ReadAll();
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("xsq_connections_accepted"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disconnect-driven cancellation.

TEST(NetServerTest, DisconnectCancelsInFlightQuery) {
  ServiceConfig service_config;
  service_config.num_workers = 1;
  Harness harness(service_config);

  RawSocket peer(harness.server->port());
  ASSERT_TRUE(peer.connected());
  std::string doc = BigDocument(20000);
  ASSERT_TRUE(peer.SendAll("OPEN //a/b/text()\n"));
  ASSERT_NE(peer.ReadLines(1).find("OK"), std::string::npos);
  ASSERT_TRUE(
      peer.SendAll("PUSH 1 " + doc + "\nCLOSE 1\n"));
  // Vanish without reading the answer: the poll thread must cancel the
  // in-flight evaluation and reclaim the session.
  peer.Close();

  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->stats().disconnect_cancels >= 1; }));
  EXPECT_TRUE(
      harness.WaitFor([&] { return harness.service->active_sessions() == 0; }));
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.server->connection_count() == 0; }));
}

TEST(NetServerTest, DisconnectOfIdleSessionStillReclaimsIt) {
  Harness harness;
  RawSocket peer(harness.server->port());
  ASSERT_TRUE(peer.connected());
  ASSERT_TRUE(peer.SendAll("OPEN //a\n"));
  ASSERT_NE(peer.ReadLines(1).find("OK 1"), std::string::npos);
  EXPECT_EQ(harness.service->active_sessions(), 1u);
  peer.Close();
  EXPECT_TRUE(
      harness.WaitFor([&] { return harness.service->active_sessions() == 0; }));
}

// ---------------------------------------------------------------------------
// GET /metrics.

TEST(NetServerTest, HttpMetricsServesTheExposition) {
  Harness harness;
  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.SendAll("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string response = raw.ReadAll();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string body = response.substr(body_at + 4);
  EXPECT_NE(body.find("# TYPE xsq_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("xsq_connections_accepted"), std::string::npos);
  EXPECT_TRUE(raw.AtEof());  // HTTP/1.0: one exchange, then close
}

TEST(NetServerTest, HttpMetricsBodyMatchesMetricsVerb) {
  Harness harness;
  // Drive one document through so the histograms are non-trivial.
  Client client(harness.client_config());
  auto open = client.Request("OPEN //a/text()");
  ASSERT_TRUE(open.ok() && open->status.ok());
  client.Request("PUSH " + open->ok_payload + " <r><a>v</a></r>");
  client.Request("CLOSE " + open->ok_payload);

  auto verb = client.Request("METRICS");
  ASSERT_TRUE(verb.ok() && verb->status.ok());

  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.SendAll("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string response = raw.ReadAll();
  size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string body = response.substr(body_at + 4);

  // Same exposition, line for line, modulo counters the scrape itself
  // moved (the HTTP connection increments connection counters, and the
  // scrape may land in a different latency bucket refresh).
  std::vector<std::string> verb_names;
  for (const std::string& line : verb->lines) {
    ASSERT_EQ(line.rfind("METRIC ", 0), 0u);
    std::string payload = line.substr(7);
    size_t space = payload.find(' ');
    verb_names.push_back(payload.substr(0, space));
  }
  std::vector<std::string> http_names;
  size_t begin = 0;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    std::string line = body.substr(begin, end - begin);
    begin = end + 1;
    size_t space = line.find(' ');
    http_names.push_back(line.substr(0, space));
  }
  EXPECT_EQ(verb_names, http_names);
}

TEST(NetServerTest, HttpUnknownPathIs404) {
  Harness harness;
  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.SendAll("GET /nope HTTP/1.0\r\n\r\n"));
  EXPECT_EQ(raw.ReadAll().rfind("HTTP/1.0 404", 0), 0u);
}

TEST(NetServerTest, HealthzReportsServingDrainingAndShedding) {
  {
    Harness harness;
    RawSocket raw(harness.server->port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.SendAll("GET /healthz HTTP/1.0\r\n\r\n"));
    std::string response = raw.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
    EXPECT_NE(response.find("\r\n\r\nok\n"), std::string::npos) << response;
  }
  {
    // A saturated service answers 503 shedding — the same condition
    // under which AcceptPending sheds new protocol connections, so the
    // probe must be accepted before the saturation happens.
    ServiceConfig service_config;
    service_config.max_sessions = 1;
    Harness harness(service_config);
    RawSocket raw(harness.server->port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(harness.WaitFor(
        [&] { return harness.server->connection_count() == 1; }));
    Client client(harness.client_config());
    auto open = client.Request("OPEN //a/text()");
    ASSERT_TRUE(open.ok() && open->status.ok());
    ASSERT_TRUE(raw.SendAll("GET /healthz HTTP/1.0\r\n\r\n"));
    std::string response = raw.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 503", 0), 0u) << response;
    EXPECT_NE(response.find("shedding"), std::string::npos) << response;
  }
  {
    // A draining server answers 503 draining on connections it still
    // serves (the listener itself is closed, so the probe must connect
    // before BeginDrain).
    Harness harness;
    RawSocket raw(harness.server->port());
    ASSERT_TRUE(raw.connected());
    // connect() succeeding only means the kernel queued the handshake;
    // wait for the accept, or BeginDrain kills the listener first.
    ASSERT_TRUE(harness.WaitFor(
        [&] { return harness.server->connection_count() == 1; }));
    harness.server->BeginDrain();
    ASSERT_TRUE(raw.SendAll("GET /healthz HTTP/1.0\r\n\r\n"));
    std::string response = raw.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 503", 0), 0u) << response;
    EXPECT_NE(response.find("draining"), std::string::npos) << response;
  }
}

// ---------------------------------------------------------------------------
// Pub/sub over the wire.

// Splits newline-terminated bytes into EVENT frames and everything
// else. EVENT frames are asynchronous (dispatcher threads), so their
// position relative to replies is non-deterministic; their content and
// count are not.
void PartitionFrames(const std::string& bytes, std::vector<std::string>* events,
                     std::vector<std::string>* replies) {
  size_t begin = 0;
  for (;;) {
    size_t newline = bytes.find('\n', begin);
    if (newline == std::string::npos) break;
    std::string line = bytes.substr(begin, newline - begin);
    begin = newline + 1;
    if (line.rfind("EVENT ", 0) == 0) {
      events->push_back(std::move(line));
    } else {
      replies->push_back(std::move(line));
    }
  }
}

TEST(NetServerTest, PubSubTranscriptMatchesStdinTranscript) {
  // SUBSCRIBE / PUBLISH / UNSUBSCRIBE through a local LineProtocol (the
  // stdin path, sink installed as xsqd does) and through the socket
  // must produce identical reply bytes and identical EVENT frames.
  Harness harness;
  const std::string commands[] = {
      "SUBSCRIBE //a/text()",
      "SUBSCRIBE //a/count()",
      "PUBLISH <r><a>x</a></r>",
      "UNSUBSCRIBE 1",
      "PUBLISH <r><a>x</a></r>",  // only the count subscription remains
      "UNSUBSCRIBE 99",           // unknown id: deterministic ERR
  };

  std::string expected;
  std::vector<std::string> expected_events;
  {
    QueryService local_service{ServiceConfig()};
    LineProtocol local(&local_service);
    std::mutex mu;
    local.SetEventSink([&](std::string_view frame) {
      std::lock_guard<std::mutex> lock(mu);
      expected_events.emplace_back(frame);
    });
    for (const std::string& command : commands) {
      local.HandleLine(command, &expected);
    }
    // EVENT delivery is asynchronous; tearing down the protocol first
    // would drop undelivered frames (by design). Wait for the three
    // deterministic frames: ITEM + AGG from the first publish, AGG
    // alone from the second.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (expected_events.size() >= 3) break;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    local.ReleaseAll();
    local_service.Shutdown();
  }
  size_t expected_lines = 0;
  for (char c : expected) expected_lines += c == '\n';

  RawSocket raw(harness.server->port());
  ASSERT_TRUE(raw.connected());
  std::string wire;
  for (const std::string& command : commands) wire += command + "\n";
  ASSERT_TRUE(raw.SendAll(wire));
  std::string actual = raw.ReadLines(expected_lines + expected_events.size());

  std::vector<std::string> actual_events;
  std::vector<std::string> actual_replies;
  PartitionFrames(actual, &actual_events, &actual_replies);
  std::vector<std::string> expected_replies;
  {
    std::vector<std::string> none;
    PartitionFrames(expected, &none, &expected_replies);
    EXPECT_TRUE(none.empty());  // stdin replies never carry EVENT lines
  }
  EXPECT_EQ(actual_replies, expected_replies);
  // Frame order within one subscriber queue is FIFO-deterministic, but
  // sort anyway so the assertion pins content, not scheduling.
  std::sort(expected_events.begin(), expected_events.end());
  std::sort(actual_events.begin(), actual_events.end());
  EXPECT_EQ(actual_events, expected_events);
  EXPECT_EQ(expected_events.size(), 3u);  // ITEM + AGG, then AGG alone
}

TEST(NetServerTest, SubscribedConnectionReceivesEventsFromOtherConnections) {
  Harness harness;
  RawSocket follower(harness.server->port());
  ASSERT_TRUE(follower.connected());
  ASSERT_TRUE(follower.SendAll("SUBSCRIBE //a/text()\n"));
  std::string reply = follower.ReadLines(1);
  ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  const std::string sub_id = reply.substr(3, reply.size() - 4);

  // A different connection publishes; the follower sent nothing more.
  Client client(harness.client_config());
  auto publish = client.Request("PUBLISH <r><a>pushed</a></r>");
  ASSERT_TRUE(publish.ok() && publish->status.ok());
  EXPECT_EQ(publish->ok_payload.rfind("matched=1 ", 0), 0u)
      << publish->ok_payload;

  EXPECT_EQ(follower.ReadLines(1), "EVENT " + sub_id + " ITEM pushed\n");

  // Disconnect deregisters the subscriber and its subscriptions.
  EXPECT_EQ(harness.service->stats().subscriptions_active, 1u);
  follower.Close();
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->stats().subscriptions_active == 0; }));
  auto republish = client.Request("PUBLISH <r><a>nobody</a></r>");
  ASSERT_TRUE(republish.ok() && republish->status.ok());
  EXPECT_EQ(republish->ok_payload.rfind("matched=0 ", 0), 0u)
      << republish->ok_payload;
}

TEST(NetServerTest, EventFramesLandBetweenReplyBlocksNeverInsideThem) {
  // The ordering guarantee (see net/line_protocol.h): one HandleLine's
  // whole reply block is queued atomically, and asynchronous EVENT
  // frames ship only between blocks. So a subscriber streaming requests
  // on one connection while another connection publishes must see (a) a
  // reply transcript byte-identical to an EVENT-free stdin run and (b)
  // every EVENT frame at a block boundary — never between a payload
  // line and its terminator.
  constexpr int kCycles = 8;
  constexpr int kPublishes = 16;
  std::vector<std::string> commands = {"SUBSCRIBE //a/text()"};
  for (int i = 1; i <= kCycles; ++i) {
    commands.push_back("OPEN //b/text()");
    commands.push_back("PUSH " + std::to_string(i) + " <r><b>p</b></r>");
    commands.push_back("CLOSE " + std::to_string(i));
  }

  std::string expected;
  {
    QueryService local_service{ServiceConfig()};
    LineProtocol local(&local_service);
    local.SetEventSink([](std::string_view) {});  // no publisher here
    for (const std::string& command : commands) {
      local.HandleLine(command, &expected);
    }
    local.ReleaseAll();
    local_service.Shutdown();
  }
  size_t expected_lines = 0;
  for (char c : expected) expected_lines += c == '\n';

  Harness harness;
  RawSocket follower(harness.server->port());
  ASSERT_TRUE(follower.connected());
  ASSERT_TRUE(follower.SendAll(commands[0] + "\n"));
  std::string sub_reply = follower.ReadLines(1);
  ASSERT_EQ(sub_reply.rfind("OK ", 0), 0u) << sub_reply;

  std::thread publisher([&harness] {
    Client client(harness.client_config());
    for (int i = 0; i < kPublishes; ++i) {
      auto published = client.Request("PUBLISH <r><a>evt</a></r>");
      ASSERT_TRUE(published.ok() && published->status.ok());
    }
  });
  std::string wire;
  for (size_t i = 1; i < commands.size(); ++i) wire += commands[i] + "\n";
  ASSERT_TRUE(follower.SendAll(wire));
  // Everything still owed on the follower's wire: the remaining reply
  // lines plus one EVENT frame per publish.
  std::string rest = follower.ReadLines(expected_lines - 1 + kPublishes);
  publisher.join();
  std::string actual = sub_reply + rest;

  // (a) Reply parity with the stdin run, EVENT frames stripped.
  std::vector<std::string> events;
  std::vector<std::string> replies;
  PartitionFrames(actual, &events, &replies);
  std::vector<std::string> expected_replies;
  {
    std::vector<std::string> none;
    PartitionFrames(expected, &none, &expected_replies);
    ASSERT_TRUE(none.empty());
  }
  EXPECT_EQ(replies, expected_replies);
  ASSERT_EQ(events.size(), static_cast<size_t>(kPublishes));
  for (const std::string& event : events) {
    EXPECT_EQ(event.substr(event.find(" ITEM ")), " ITEM evt") << event;
  }

  // (b) Block contiguity: an EVENT line's predecessor is a terminator
  // (OK/ERR), another EVENT, or nothing — never a payload line.
  std::string previous;
  size_t begin = 0;
  while (begin < actual.size()) {
    size_t end = actual.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    std::string line = actual.substr(begin, end - begin);
    begin = end + 1;
    if (line.rfind("EVENT ", 0) == 0) {
      bool at_boundary = previous.empty() || previous == "OK" ||
                         previous.rfind("OK ", 0) == 0 ||
                         previous.rfind("ERR ", 0) == 0 ||
                         previous.rfind("EVENT ", 0) == 0;
      EXPECT_TRUE(at_boundary)
          << "EVENT frame interleaved inside a reply block, after: "
          << previous;
    }
    previous = std::move(line);
  }
}

// ---------------------------------------------------------------------------
// net::Client behavior.

TEST(NetClientTest, VerbTableClassifiesEveryRetryClass) {
  using net::VerbRetryClass;
  // Idempotent: a replay leaves server state unchanged. RECORD is
  // idempotent *by key*: re-recording the same name with the same bytes
  // installs an identical tape.
  for (const char* line :
       {"STATS", "METRICS", "RUNCACHED 1 doc", "RECORD doc <r/>"}) {
    EXPECT_EQ(Client::RetryClassFor(line), VerbRetryClass::kIdempotent)
        << line;
  }
  // Non-idempotent: a replay changes state; the caller decides.
  for (const char* line : {"OPEN //a", "PUSH 1 <r/>", "DRAIN 1", "CLOSE 1",
                           "EVICT doc", "CANCEL 1", "QUIT"}) {
    EXPECT_EQ(Client::RetryClassFor(line), VerbRetryClass::kNonIdempotent)
        << line;
  }
  // Never-retried: a replay is externally visible (double-delivered
  // EVENT frames, duplicate standing queries).
  for (const char* line :
       {"PUBLISH <r/>", "SUBSCRIBE //a", "UNSUBSCRIBE 1"}) {
    EXPECT_EQ(Client::RetryClassFor(line), VerbRetryClass::kNeverRetry)
        << line;
  }
  // Unknown (future) verbs get the conservative class.
  EXPECT_EQ(Client::RetryClassFor("FROB 1"),
            VerbRetryClass::kNonIdempotent);
  EXPECT_EQ(Client::RetryClassFor(""), VerbRetryClass::kNonIdempotent);
}

TEST(NetClientTest, CountersTrackConnectsReconnectsAndRetries) {
  Harness harness;
  Client client(harness.client_config());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.counters().connects, 1u);
  EXPECT_EQ(client.counters().reconnects, 0u);

  // QUIT makes the server close; the next idempotent request finds the
  // dead socket, reconnects, and retries.
  ASSERT_TRUE(client.Request("QUIT").ok());
  auto stats = client.Request("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->status.ok());
  EXPECT_GE(client.counters().connects, 2u);
  EXPECT_GE(client.counters().reconnects, 1u);
  EXPECT_GE(client.counters().retries, 1u);
  EXPECT_EQ(client.counters().shed_retries, 0u);
}

TEST(NetClientTest, DecodesErrRepliesIntoStatusCodes) {
  Harness harness;
  Client client(harness.client_config());
  auto response = client.Request("PUSH 99 <r/>");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  auto parse = client.Request("OPEN ///");
  ASSERT_TRUE(parse.ok());
  EXPECT_FALSE(parse->status.ok());
}

TEST(NetClientTest, ReadsAReplyBlockSpanningManyReceives) {
  // 20 000 ITEM lines (~250 KiB) arrive over many recv calls, lines
  // split across their boundaries; every line comes back, in order,
  // and so does a single line longer than several receives.
  Harness harness;
  Client client(harness.client_config());
  std::string doc = "<r>";
  for (int i = 0; i < 20000; ++i) {
    doc += "<a>item-" + std::to_string(i) + "</a>";
  }
  doc += "</r>";
  auto record = client.Request("RECORD big " + LineProtocol::Escape(doc));
  ASSERT_TRUE(record.ok() && record->status.ok());
  auto open = client.Request("OPEN /r/a/text()");
  ASSERT_TRUE(open.ok() && open->status.ok());
  auto run = client.Request("RUNCACHED " + open->ok_payload + " big");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->status.ok()) << run->status.ToString();
  ASSERT_EQ(run->lines.size(), 20000u);
  for (int i = 0; i < 20000; i += 997) {
    EXPECT_EQ(run->lines[i], "ITEM item-" + std::to_string(i));
  }
  EXPECT_EQ(run->lines.back(), "ITEM item-19999");
  // One line several receives long: the tape REPLPULL serves.
  auto pulled = client.Request("REPLPULL big");
  ASSERT_TRUE(pulled.ok() && pulled->status.ok());
  ASSERT_EQ(pulled->lines.size(), 1u);
  EXPECT_EQ(pulled->lines[0].rfind("TAPE ", 0), 0u);
  EXPECT_GT(pulled->lines[0].size(), 3 * (64u << 10));
  // The connection stays in step for the next request.
  auto stats = client.Request("STATS");
  ASSERT_TRUE(stats.ok() && stats->status.ok());
  EXPECT_EQ(stats->lines.front().rfind("STAT ", 0), 0u);
}

TEST(NetClientTest, HttpGetReturnsStatusAndBody) {
  Harness harness;
  net::Endpoint endpoint{"127.0.0.1", harness.server->port()};
  auto healthz = net::HttpGet(endpoint, "/healthz", 2000);
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz->code, 200);
  EXPECT_EQ(healthz->body.rfind("ok", 0), 0u) << healthz->body;
  auto missing = net::HttpGet(endpoint, "/nope", 2000);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, 404);
}

TEST(NetEndpointTest, ParsersRejectEmptyHostsAndPortsOutsideTheRange) {
  EXPECT_EQ(net::ParsePort("1"), uint16_t{1});
  EXPECT_EQ(net::ParsePort("65535"), uint16_t{65535});
  // 70000 and 102083 used to wrap onto ports 4464 and 36547.
  for (const char* bad : {"", "0", "65536", "70000", "102083", "-1", "+80",
                          " 80", "80 ", "8a", "0x50", "99999999999999"}) {
    EXPECT_FALSE(net::ParsePort(bad).has_value()) << bad;
  }
  EXPECT_EQ(net::ParseListenPort("0"), uint16_t{0});
  EXPECT_EQ(net::ParseListenPort("9100"), uint16_t{9100});
  EXPECT_FALSE(net::ParseListenPort("105536").has_value());

  std::optional<net::Endpoint> endpoint = net::ParseEndpoint("10.0.0.2:9101");
  ASSERT_TRUE(endpoint.has_value());
  EXPECT_EQ(endpoint->host, "10.0.0.2");
  EXPECT_EQ(endpoint->port, 9101);
  EXPECT_EQ(endpoint->ToString(), "10.0.0.2:9101");
  for (const char* bad : {"", ":80", "host", "host:", "host:0",
                          "127.0.0.1:65536", "127.0.0.1:102083"}) {
    EXPECT_FALSE(net::ParseEndpoint(bad).has_value()) << bad;
  }

  auto list = net::ParseEndpoints("127.0.0.1:9100,127.0.0.1:9200");
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[1].port, 9200);
  for (const char* bad : {"", ",", "127.0.0.1:1,", "127.0.0.1:1,,127.0.0.1:2",
                          "127.0.0.1:1,127.0.0.1:70000"}) {
    EXPECT_FALSE(net::ParseEndpoints(bad).has_value()) << bad;
  }
}

TEST(NetClientTest, NonIdempotentVerbsDoNotRetryOnTransportFailure) {
  // No server: the connect fails. A non-idempotent verb must surface
  // the first failure instead of retrying.
  ClientConfig config;
  config.port = 1;  // nothing listens on port 1 for this uid
  config.connect_timeout_ms = 200;
  config.max_retries = 3;
  config.backoff_base_ms = 1;
  Client client(config);
  auto t0 = std::chrono::steady_clock::now();
  auto response = client.Request("PUSH 1 <r/>");
  EXPECT_FALSE(response.ok());
  // One attempt, no backoff sleeps: fast failure.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
}

TEST(NetClientTest, IdempotentVerbRetriesThroughShedding) {
  ServerConfig server_config;
  server_config.max_connections = 1;
  Harness harness(ServiceConfig(), server_config);

  // Occupy the only slot, then release it shortly after the client's
  // first attempt has been shed.
  auto holder = std::make_unique<RawSocket>(harness.server->port());
  ASSERT_TRUE(holder->connected());
  ASSERT_TRUE(holder->SendAll("STATS\n"));
  holder->ReadLines(1);

  std::thread releaser([&harness, &holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    holder->SendAll("QUIT\n");
    holder->ReadLines(1);
    holder->Close();
    (void)harness;
  });

  ClientConfig config = harness.client_config();
  config.max_retries = 8;
  config.backoff_base_ms = 40;
  config.backoff_max_ms = 120;
  Client client(config);
  auto response = client.Request("STATS");
  releaser.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_GT(response->attempts, 1);
  EXPECT_GE(harness.service->stats().connections_shed, 1u);
  // The shed arrived as an "ERR ResourceExhausted" reply (the server
  // answers before closing), so the retry is accounted as honoring a
  // shed, not as fighting a dead transport.
  EXPECT_GE(client.counters().retries, 1u);
  EXPECT_GE(client.counters().shed_retries, 1u);
}

// ---------------------------------------------------------------------------
// The soak: many concurrent clients, every fault class at once.

TEST(NetSoakTest, ConcurrentClientsWithInjectedFaults) {
  ServiceConfig service_config;
  service_config.num_workers = 4;
  service_config.default_deadline_ms = 10000;
  ServerConfig server_config;
  server_config.max_connections = 24;
  server_config.max_line_bytes = 256 * 1024;
  server_config.max_output_buffer_bytes = 64 * 1024;
  server_config.idle_timeout_ms = 700;
  server_config.write_timeout_ms = 2000;
  server_config.protocol_workers = 4;
  Harness harness(service_config, server_config);

  // Exercise the failpoint-armed error paths too: rare injected
  // read/write failures and forced sheds on top of the organic faults.
  FailPoints::Instance().ArmProbability("net.read.fail", 0.02, 7);
  FailPoints::Instance().ArmProbability("net.write.fail", 0.02, 11);
  FailPoints::Instance().ArmProbability("net.accept.shed", 0.05, 13);

  const std::string big_doc = BigDocument(4000);
  {
    Client setup(harness.client_config());
    auto record =
        setup.Request("RECORD soak <r><a>cached</a><a>value</a></r>");
    ASSERT_TRUE(record.ok());
    ASSERT_TRUE(record->status.ok());
  }

  constexpr int kClients = 16;
  constexpr int kIterations = 12;
  std::atomic<int> round_trips{0};
  std::atomic<int> faults_injected{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uint64_t rng = 0x5bd1e995u * static_cast<uint64_t>(c + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      for (int i = 0; i < kIterations; ++i) {
        switch (next() % 6) {
          case 0: {  // honest round trip
            Client client(harness.client_config());
            auto open = client.Request("OPEN //a/text()");
            if (!open.ok() || !open->status.ok()) break;
            client.Request("PUSH " + open->ok_payload +
                           " <r><a>soak</a></r>");
            auto close = client.Request("CLOSE " + open->ok_payload);
            if (close.ok() && close->status.ok()) {
              round_trips.fetch_add(1);
            }
            break;
          }
          case 1: {  // cached replay (idempotent, retried under shed)
            ClientConfig config = harness.client_config();
            config.max_retries = 4;
            config.backoff_base_ms = 10;
            Client client(config);
            auto open = client.Request("OPEN //a/text()");
            if (!open.ok() || !open->status.ok()) break;
            auto run =
                client.Request("RUNCACHED " + open->ok_payload + " soak");
            if (run.ok() && run->status.ok()) round_trips.fetch_add(1);
            break;
          }
          case 2: {  // mid-query disconnect
            RawSocket peer(harness.server->port());
            if (!peer.connected()) break;
            if (!peer.SendAll("OPEN //a/b/text()\n")) break;
            peer.ReadLines(1);
            peer.SendAll("PUSH 1 " + big_doc + "\nCLOSE 1\n");
            peer.Close();  // abandon mid-evaluation
            faults_injected.fetch_add(1);
            break;
          }
          case 3: {  // half-open peer: connect, say little, vanish
            RawSocket peer(harness.server->port());
            if (!peer.connected()) break;
            peer.SendAll("OPEN //a\n");
            peer.Close();
            faults_injected.fetch_add(1);
            break;
          }
          case 4: {  // oversized line
            RawSocket peer(harness.server->port());
            if (!peer.connected()) break;
            std::string big(server_config.max_line_bytes + 1024, 'z');
            peer.SendAll("PUSH 1 " + big + "\n");
            peer.ReadAll();
            faults_injected.fetch_add(1);
            break;
          }
          default: {  // slow reader: request floods, never read
            RawSocket peer(harness.server->port());
            if (!peer.connected()) break;
            std::string flood;
            for (int r = 0; r < 64; ++r) flood += "METRICS\n";
            peer.SendAll(flood);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            peer.Close();
            faults_injected.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  FailPoints::Instance().Disarm("net.read.fail");
  FailPoints::Instance().Disarm("net.write.fail");
  FailPoints::Instance().Disarm("net.accept.shed");

  // The daemon survived; every connection and session is reclaimed.
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.server->connection_count() == 0; }, 15000));
  EXPECT_TRUE(harness.WaitFor(
      [&] { return harness.service->active_sessions() == 0; }, 15000));

  // The service still serves cleanly after the storm.
  {
    Client client(harness.client_config());
    auto open = client.Request("OPEN //a/text()");
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    ASSERT_TRUE(open->status.ok());
    client.Request("PUSH " + open->ok_payload + " <r><a>after</a></r>");
    auto close = client.Request("CLOSE " + open->ok_payload);
    ASSERT_TRUE(close.ok());
    EXPECT_TRUE(close->status.ok());
    ASSERT_EQ(close->lines.size(), 1u);
    EXPECT_EQ(close->lines[0], "ITEM after");
  }

  // Accounting: work happened, faults were seen and categorized.
  service::StatsSnapshot stats = harness.service->stats();
  EXPECT_GT(round_trips.load(), 0);
  EXPECT_GT(faults_injected.load(), 0);
  EXPECT_GT(stats.connections_accepted, 0u);
  // Every abandoned in-flight query was cancelled via disconnect (the
  // half-open OPENs may be reclaimed idle, without a cancel).
  EXPECT_GT(stats.disconnect_cancels + stats.net_idle_closed +
                stats.net_overrun_closed,
            0u);
  // Overruns from the oversized-line and slow-reader clients.
  EXPECT_GT(stats.net_overrun_closed, 0u);
}

// ---------------------------------------------------------------------------
// Drain semantics.

TEST(NetServerTest, BeginDrainStopsAcceptingButServesLiveConnections) {
  Harness harness;
  RawSocket live(harness.server->port());
  ASSERT_TRUE(live.connected());
  ASSERT_TRUE(live.SendAll("OPEN //a/text()\n"));
  ASSERT_NE(live.ReadLines(1).find("OK 1"), std::string::npos);

  harness.server->BeginDrain();
  // New connections are refused once the listener closes.
  EXPECT_TRUE(harness.WaitFor([&] {
    RawSocket refused(harness.server->port());
    return !refused.connected() || refused.AtEof();
  }));
  // The live conversation still works.
  ASSERT_TRUE(live.SendAll("PUSH 1 <r><a>drain</a></r>\nCLOSE 1\nQUIT\n"));
  std::string replies = live.ReadAll();
  EXPECT_NE(replies.find("ITEM drain"), std::string::npos);
}

TEST(NetServerTest, StopCancelsStragglersWithinTheDeadline) {
  ServiceConfig service_config;
  service_config.num_workers = 1;
  ServerConfig server_config;
  server_config.drain_deadline_ms = 300;
  Harness harness(service_config, server_config);

  RawSocket straggler(harness.server->port());
  ASSERT_TRUE(straggler.connected());
  ASSERT_TRUE(straggler.SendAll("OPEN //a/b/text()\n"));
  straggler.ReadLines(1);
  ASSERT_TRUE(
      straggler.SendAll("PUSH 1 " + BigDocument(20000) + "\nCLOSE 1\n"));

  auto t0 = std::chrono::steady_clock::now();
  harness.server->Stop();  // straggler never finishes on its own
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_EQ(harness.server->connection_count(), 0u);
  EXPECT_TRUE(
      harness.WaitFor([&] { return harness.service->active_sessions() == 0; }));
}

TEST(NetServerTest, StopClosesIdleConnectionsWithoutWaitingOutTheDeadline) {
  ServerConfig server_config;
  server_config.drain_deadline_ms = 5000;
  Harness harness(ServiceConfig(), server_config);
  // An idle peer (like a router's pooled backend connection): it spoke
  // once, holds no session, and waits.
  RawSocket idle(harness.server->port());
  ASSERT_TRUE(idle.connected());
  ASSERT_TRUE(idle.SendAll("DRAIN 7\n"));
  ASSERT_EQ(idle.ReadLines(1), "ERR InvalidArgument: unknown session id 7\n");

  auto t0 = std::chrono::steady_clock::now();
  harness.server->Stop();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(harness.server->connection_count(), 0u);
  EXPECT_TRUE(idle.AtEof());
}

TEST(NetServerTest, StopWaitsForAConnectionWithAnOpenSession) {
  ServerConfig server_config;
  server_config.drain_deadline_ms = 5000;
  Harness harness(ServiceConfig(), server_config);
  RawSocket busy(harness.server->port());
  ASSERT_TRUE(busy.connected());
  ASSERT_TRUE(busy.SendAll("OPEN //a/text()\n"));
  ASSERT_NE(busy.ReadLines(1).find("OK 1"), std::string::npos);

  std::thread stopper([&] { harness.server->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The session's conversation is still served mid-Stop; once it
  // closes the session, nothing holds the connection open.
  ASSERT_TRUE(busy.SendAll("PUSH 1 <r><a>late</a></r>\nCLOSE 1\n"));
  std::string replies = busy.ReadAll();
  stopper.join();
  EXPECT_NE(replies.find("ITEM late"), std::string::npos) << replies;
  EXPECT_EQ(harness.server->connection_count(), 0u);
}

}  // namespace
}  // namespace xsq
