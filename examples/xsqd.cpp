// xsqd: the query-service daemon. One process, two transports, one
// protocol:
//
//   stdin/stdout  always on — the whole concurrent stack scriptable
//                 from a shell:
//                   $ printf 'OPEN //book/title/text()\nPUSH 1 <...>\n
//                     CLOSE 1\nQUIT\n' | xsqd
//   TCP           with --listen=PORT — the same line protocol served to
//                 many concurrent connections by net::Server, plus
//                 GET /metrics on the same port for HTTP scrapers.
//
// The protocol itself (verbs, replies, escaping) lives in
// net::LineProtocol; see src/net/line_protocol.h for the grammar. Both
// transports produce byte-identical transcripts for the same commands.
//
// Pub/sub: SUBSCRIBE/UNSUBSCRIBE register standing queries; PUBLISH
// matches a document against all of them in one parse. Matches arrive
// asynchronously as "EVENT <sub-id> ..." lines — on the stdin
// transport they are written to stdout between reply blocks (a mutex
// keeps lines whole); on TCP they are pushed down the subscribing
// connection.
//
// Replication: REPLPULL and REPLSTATUS are the shard-side verbs of the
// router's replication plane — REPLPULL serves a resident tape (or, in
// pull mode, fetches one shard-to-shard and CRC-verifies it on
// ingest), REPLSTATUS inventories resident documents. Grammar in
// src/net/line_protocol.h.
//
// Network behavior (see src/net/server.h): per-connection idle and
// write deadlines, bounded line and output buffers (overrun answers
// ERR and closes), accept-side load shedding at --max-connections or a
// saturated service, and disconnect-driven cancellation — a peer that
// vanishes mid-query has its in-flight evaluations cancelled within
// one engine sampling interval (--cancel-check-events).
//
// Shutdown: SIGTERM or SIGINT begins a graceful drain — the listener
// closes immediately, live connections get --drain-deadline-ms to
// finish, stragglers are cancelled — then the service itself drains
// under the same bound. EOF on stdin exits the same way when no
// listener is active; with --listen the daemon keeps serving sockets
// until a signal arrives.
//
// Flags: --workers=N (default 4), --max-sessions=N,
//        --session-memory-budget=BYTES, --plan-cache=N,
//        --doc-cache=N (0 = unlimited), --doc-cache-bytes=BYTES
//        (0 = unlimited), --slow-query-ms=N (log requests at or above
//        N ms to stderr with their parse/automaton/buffer phase split,
//        and dump per-bucket slow-query exemplars at exit; 0 =
//        disabled), --default-deadline-ms=N (deadline applied to
//        every document request; 0 = none), --drain-deadline-ms=N
//        (bound on the shutdown drain; 0 = wait forever),
//        --max-line-bytes=N (protocol lines above N bytes are rejected
//        with ERR; default 16 MiB), --cancel-check-events=N (engine
//        cancellation sampling interval in SAX events; default 128),
//        --listen=PORT (serve TCP; 0 picks an ephemeral port, printed
//        as "LISTENING <port>"), --max-connections=N (accept-side
//        shedding threshold; default 64), --idle-timeout-ms=N (close
//        idle/half-open connections; 0 = never; default 30000),
//        --max-tape-bytes=N (cap on a serialized tape moved by a
//        REPLPULL shard-to-shard transfer, serve and pull side;
//        oversized fails with ERR LimitExceeded; 0 = unlimited),
//        --replpull-deadline-ms=N (deadline for one REPLPULL fetch
//        from the source peer; default 5000).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "net/client.h"
#include "net/line_protocol.h"
#include "net/server.h"
#include "service/query_service.h"

namespace {

using xsq::service::QueryService;
using xsq::service::ServiceConfig;

std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

// Install without SA_RESTART so a blocking stdin read is interrupted
// and the main loop falls through to the drain path.
void InstallSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

size_t FlagValue(std::string_view arg, size_t fallback) {
  size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return fallback;
  return static_cast<size_t>(
      std::strtoull(std::string(arg.substr(eq + 1)).c_str(), nullptr, 10));
}

// One bounded read of a protocol line. Unlike std::getline, a hostile
// or broken client cannot make the daemon buffer an unbounded line:
// once `max_bytes` is exceeded the rest of the line is discarded (not
// stored) and the command is rejected, keeping the daemon serving.
enum class LineRead {
  kLine,       // complete line in *line (newline consumed)
  kPartial,    // EOF mid-line: *line holds the final, unterminated command
  kEof,        // EOF with nothing read
  kOversized,  // line exceeded max_bytes; remainder discarded
};

LineRead ReadLineBounded(std::istream& in, size_t max_bytes,
                         std::string* line) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  constexpr int kEofChar = std::char_traits<char>::eof();
  for (int c = buf->sbumpc();; c = buf->sbumpc()) {
    if (c == kEofChar) {
      return line->empty() ? LineRead::kEof : LineRead::kPartial;
    }
    if (c == '\n') return LineRead::kLine;
    if (line->size() >= max_bytes) {
      // Swallow the rest of the line without storing it.
      while (c != kEofChar && c != '\n') c = buf->sbumpc();
      return LineRead::kOversized;
    }
    line->push_back(static_cast<char>(c));
  }
}

}  // namespace

int main(int argc, char** argv) {
  ServiceConfig config;
  xsq::net::ServerConfig net_config;
  size_t max_line_bytes = 16u << 20;  // 16 MiB
  bool listen = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--workers", 0) == 0) {
      config.num_workers = static_cast<int>(FlagValue(arg, 4));
    } else if (arg.rfind("--max-sessions", 0) == 0) {
      config.max_sessions = FlagValue(arg, config.max_sessions);
    } else if (arg.rfind("--session-memory-budget", 0) == 0) {
      config.per_session_memory_budget =
          FlagValue(arg, config.per_session_memory_budget);
    } else if (arg.rfind("--plan-cache", 0) == 0) {
      config.plan_cache_capacity = FlagValue(arg, config.plan_cache_capacity);
    } else if (arg.rfind("--doc-cache-bytes", 0) == 0) {
      config.doc_cache_byte_budget =
          FlagValue(arg, config.doc_cache_byte_budget);
    } else if (arg.rfind("--doc-cache", 0) == 0) {
      config.doc_cache_capacity = FlagValue(arg, config.doc_cache_capacity);
    } else if (arg.rfind("--slow-query-ms", 0) == 0) {
      config.slow_query_ms = FlagValue(arg, config.slow_query_ms);
    } else if (arg.rfind("--default-deadline-ms", 0) == 0) {
      config.default_deadline_ms = FlagValue(arg, config.default_deadline_ms);
    } else if (arg.rfind("--drain-deadline-ms", 0) == 0) {
      config.drain_deadline_ms = FlagValue(arg, config.drain_deadline_ms);
      net_config.drain_deadline_ms = config.drain_deadline_ms;
    } else if (arg.rfind("--max-line-bytes", 0) == 0) {
      max_line_bytes = FlagValue(arg, max_line_bytes);
    } else if (arg.rfind("--cancel-check-events", 0) == 0) {
      config.cancel_check_events = static_cast<uint32_t>(
          FlagValue(arg, config.cancel_check_events));
    } else if (arg.rfind("--listen=", 0) == 0) {
      std::optional<uint16_t> port = xsq::net::ParseListenPort(arg.substr(9));
      if (!port.has_value()) {
        std::fprintf(stderr, "usage: xsqd [--listen=PORT] [flags]; PORT is "
                             "1-65535, or 0 for any free port\n");
        return 2;
      }
      listen = true;
      net_config.port = *port;
    } else if (arg.rfind("--max-connections", 0) == 0) {
      net_config.max_connections =
          FlagValue(arg, net_config.max_connections);
    } else if (arg.rfind("--idle-timeout-ms", 0) == 0) {
      net_config.idle_timeout_ms = FlagValue(arg, net_config.idle_timeout_ms);
    } else if (arg.rfind("--max-tape-bytes", 0) == 0) {
      config.max_tape_bytes = FlagValue(arg, config.max_tape_bytes);
    } else if (arg.rfind("--replpull-deadline-ms", 0) == 0) {
      config.replpull_deadline_ms =
          FlagValue(arg, config.replpull_deadline_ms);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(arg).c_str());
      return 2;
    }
  }

  QueryService service(config);

  std::unique_ptr<xsq::net::Server> server;
  if (listen) {
    net_config.max_line_bytes = max_line_bytes;
    auto created = xsq::net::Server::Create(&service, net_config);
    if (!created.ok()) {
      std::fprintf(stderr, "listen failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    server = *std::move(created);
    std::printf("LISTENING %u\n", static_cast<unsigned>(server->port()));
    std::fflush(stdout);
  }
  InstallSignalHandlers();

  xsq::net::LineProtocol protocol(&service);
  // Asynchronous EVENT frames from the service's dispatcher threads
  // share stdout with the reply path; the mutex keeps every line whole.
  std::mutex stdout_mu;
  protocol.SetEventSink([&stdout_mu](std::string_view frame) {
    std::lock_guard<std::mutex> lock(stdout_mu);
    std::fwrite(frame.data(), 1, frame.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  });
  std::string line;
  std::string replies;
  bool quit = false;
  for (;;) {
    if (g_signal.load(std::memory_order_relaxed) != 0) break;
    LineRead read = ReadLineBounded(std::cin, max_line_bytes, &line);
    if (read == LineRead::kEof) break;
    if (read == LineRead::kOversized) {
      // The stdin transport serves one trusted caller: discard the
      // command but keep the conversation (sockets close instead).
      std::string reply =
          xsq::net::LineProtocol::OversizedLineReply(max_line_bytes);
      std::lock_guard<std::mutex> lock(stdout_mu);
      std::fputs(reply.c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
      continue;
    }
    const bool eof_after_line = read == LineRead::kPartial;
    replies.clear();
    bool keep_going = protocol.HandleLine(line, &replies);
    {
      std::lock_guard<std::mutex> lock(stdout_mu);
      std::fwrite(replies.data(), 1, replies.size(), stdout);
      std::fflush(stdout);
    }
    if (!keep_going) {            // QUIT shuts the whole daemon down
      quit = true;
      break;
    }
    if (eof_after_line) break;    // EOF mid-line: partial command handled
  }

  // With a listener, stdin ending does not end the daemon — sockets are
  // the front door; wait for the drain signal (stdin QUIT still works).
  if (server != nullptr) {
    while (!quit && g_signal.load(std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server->BeginDrain();
    server->Stop();
  }
  protocol.ReleaseAll();
  service.Shutdown();
  if (config.slow_query_ms > 0) {
    std::string exemplars;
    service.exemplars().RenderComments(&exemplars);
    if (!exemplars.empty()) {
      std::fputs("[xsq] slow-query exemplars:\n", stderr);
      std::fwrite(exemplars.data(), 1, exemplars.size(), stderr);
    }
  }
  return 0;
}
