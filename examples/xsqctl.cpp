// xsqctl: a command-line client for a listening xsqd, built on
// net::Client — connect/request timeouts, jittered exponential-backoff
// retries for idempotent verbs, protocol escaping handled for you.
//
//   xsqctl [--host=H] [--port=P] [--timeout-ms=N] [--retries=N] <cmd>
//   xsqctl --router=H:P[,H:P...] <cmd>      # multi-endpoint failover
//
// --router lists every front-tier endpoint (e.g. two HA xsq_routers
// over one shard set). A transport failure on an idempotent verb
// retries transparently on the next endpoint; sticky sessions
// (query/cached) are replayed from OPEN on the survivor, so killing
// one router mid-command still yields the single-router transcript.
//
// Commands:
//   stats                      print the server's STATS block
//   metrics                    print the METRICS exposition (verb path)
//   http-metrics               scrape GET /metrics over HTTP/1.0
//                              (same bytes a Prometheus scraper sees)
//   query <xpath> [file]       open a session, stream the file (or
//                              stdin) as one document, print ITEM/AGG
//                              results
//   cached <name> <xpath>      RUNCACHED a recorded document
//   record <name> [file]       parse once, cache the tape server-side
//   publish [file]             PUBLISH the file (or stdin) to every
//                              standing subscription on the server
//   follow <xpath> [...]       SUBSCRIBE the given standing queries on
//                              one dedicated connection and stream the
//                              asynchronous EVENT frames to stdout
//                              until the server closes or the process
//                              is killed (raise the daemon's
//                              --idle-timeout-ms for quiet feeds)
//   raw <protocol line>        send one verbatim protocol line
//
// Every command, http-metrics and follow included, goes through the
// one net::Client target: --host/--port, or the current --router
// endpoint.
//
// Exit status: 0 on OK, 1 on an ERR reply or transport failure, 2 on
// usage errors, a malformed address or a port outside 1-65535 among
// them.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "net/client.h"
#include "net/line_protocol.h"

namespace {

using xsq::net::Client;
using xsq::net::ClientConfig;
using xsq::net::LineProtocol;
using xsq::net::Response;

int Usage() {
  std::fprintf(stderr,
               "usage: xsqctl [--host=H] [--port=P] [--router=H:P[,H:P...]] "
               "[--timeout-ms=N] [--retries=N] "
               "stats|metrics|http-metrics|query|cached|record|publish|"
               "follow|raw ...\n");
  return 2;
}

// Run a sticky OPEN..CLOSE conversation with session-level failover: a
// transport failure mid-session loses the server-side session, so the
// whole conversation replays against the next endpoint (net::Client has
// already advanced past the dead one). Attempts are bounded by the
// endpoint count — each endpoint gets at most one full replay.
int RunSession(Client& client,
               const std::function<int(Client&, bool*)>& body) {
  const size_t attempts = std::max<size_t>(1, client.endpoint_count());
  int rc = 1;
  for (size_t i = 0; i < attempts; ++i) {
    bool transport_failed = false;
    rc = body(client, &transport_failed);
    if (!transport_failed) return rc;
    if (i + 1 < attempts) {
      std::fprintf(stderr,
                   "xsqctl: transport failure, replaying session on next "
                   "endpoint\n");
    }
  }
  return rc;
}

bool ReadAll(const std::string& path, std::string* out) {
  std::istream* in = &std::cin;
  std::ifstream file;
  if (!path.empty() && path != "-") {
    file.open(path, std::ios::binary);
    if (!file) return false;
    in = &file;
  }
  std::ostringstream buffer;
  buffer << in->rdbuf();
  *out = buffer.str();
  return true;
}


// One request. A transport failure is printed, flagged in
// *transport_failed when given (the session replays on the next
// endpoint) and returned as nullopt; an ERR reply is returned.
std::optional<Response> Send(Client& client, const std::string& line,
                             bool* transport_failed = nullptr) {
  auto response = client.Request(line);
  if (response.ok()) return *std::move(response);
  if (transport_failed != nullptr) *transport_failed = true;
  std::fprintf(stderr, "xsqctl: %s\n", response.status().ToString().c_str());
  return std::nullopt;
}

// Prints the reply block; returns the exit status of a command that
// ends with it.
int Finish(const Response& response) {
  for (const std::string& line : response.lines) {
    std::printf("%s\n", line.c_str());
  }
  if (!response.status.ok()) {
    std::printf("ERR %s\n", response.status.ToString().c_str());
    return 1;
  }
  if (response.ok_payload.empty()) {
    std::printf("OK\n");
  } else {
    std::printf("OK %s\n", response.ok_payload.c_str());
  }
  return 0;
}

int RunOne(Client& client, const std::string& line) {
  std::optional<Response> response = Send(client, line);
  return response.has_value() ? Finish(*response) : 1;
}

// GET /metrics over HTTP/1.0 on the port the protocol uses, proving
// the scrape path without curl. Prints the response body.
int HttpMetrics(const Client& client, uint64_t timeout_ms) {
  auto page = xsq::net::HttpGet(client.endpoint(), "/metrics", timeout_ms);
  if (!page.ok()) {
    std::fprintf(stderr, "xsqctl: %s\n", page.status().ToString().c_str());
    return 1;
  }
  if (page->code != 200) {
    std::fprintf(stderr, "xsqctl: HTTP status %d\n", page->code);
    return 1;
  }
  std::fwrite(page->body.data(), 1, page->body.size(), stdout);
  return 0;
}

// Follow mode: one SUBSCRIBE request per query, each reply printed,
// then every further line on the connection (the asynchronous EVENT
// feed) to stdout until the server closes it.
int Follow(Client& client, const std::vector<std::string>& queries) {
  for (const std::string& query : queries) {
    std::optional<Response> reply = Send(client, "SUBSCRIBE " + query);
    if (!reply.has_value() || Finish(*reply) != 0) return 1;
    std::fflush(stdout);
  }
  std::string line;
  while (client.ReadLine(&line, std::chrono::steady_clock::time_point::max())
             .ok()) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ClientConfig config;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&arg](size_t fallback) -> size_t {
      size_t eq = arg.find('=');
      if (eq == std::string_view::npos) return fallback;
      return static_cast<size_t>(std::strtoull(
          std::string(arg.substr(eq + 1)).c_str(), nullptr, 10));
    };
    if (arg.rfind("--host", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq != std::string_view::npos) {
        config.host = std::string(arg.substr(eq + 1));
      }
    } else if (arg.rfind("--port=", 0) == 0) {
      std::optional<uint16_t> port = xsq::net::ParsePort(arg.substr(7));
      if (!port.has_value()) return Usage();
      config.port = *port;
    } else if (arg.rfind("--router=", 0) == 0) {
      auto endpoints = xsq::net::ParseEndpoints(arg.substr(9));
      if (!endpoints.has_value()) return Usage();
      config.endpoints = *std::move(endpoints);
    } else if (arg.rfind("--timeout-ms", 0) == 0) {
      config.request_timeout_ms = value(config.request_timeout_ms);
      config.connect_timeout_ms = config.request_timeout_ms;
    } else if (arg.rfind("--retries", 0) == 0) {
      config.max_retries = static_cast<int>(value(config.max_retries));
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      args.emplace_back(arg);
    }
  }
  if (args.empty() || (config.port == 0 && config.endpoints.empty())) {
    return Usage();
  }
  const std::string& command = args[0];
  Client client(config);
  if (command == "http-metrics") {
    return HttpMetrics(client, config.request_timeout_ms);
  } else if (command == "follow") {
    if (args.size() < 2) return Usage();
    return Follow(client,
                  std::vector<std::string>(args.begin() + 1, args.end()));
  } else if (command == "stats") {
    return RunOne(client, "STATS");
  } else if (command == "metrics") {
    return RunOne(client, "METRICS");
  } else if (command == "raw") {
    if (args.size() < 2) return Usage();
    return RunOne(client, args[1]);
  } else if (command == "record") {
    if (args.size() < 2) return Usage();
    std::string document;
    if (!ReadAll(args.size() > 2 ? args[2] : "-", &document)) {
      std::fprintf(stderr, "xsqctl: cannot read %s\n", args[2].c_str());
      return 1;
    }
    return RunOne(client,
                  "RECORD " + args[1] + " " + LineProtocol::Escape(document));
  } else if (command == "publish") {
    std::string document;
    if (!ReadAll(args.size() > 1 ? args[1] : "-", &document)) {
      std::fprintf(stderr, "xsqctl: cannot read %s\n", args[1].c_str());
      return 1;
    }
    return RunOne(client, "PUBLISH " + LineProtocol::Escape(document));
  } else if (command == "cached") {
    if (args.size() < 3) return Usage();
    return RunSession(client, [&args](Client& c, bool* transport_failed) {
      auto open = Send(c, "OPEN " + args[2], transport_failed);
      if (!open.has_value()) return 1;
      if (!open->status.ok()) {
        std::fprintf(stderr, "xsqctl: OPEN failed\n");
        return 1;
      }
      auto run = Send(c, "RUNCACHED " + open->ok_payload + " " + args[1],
                      transport_failed);
      return run.has_value() ? Finish(*run) : 1;
    });
  } else if (command == "query") {
    if (args.size() < 2) return Usage();
    std::string document;
    if (!ReadAll(args.size() > 2 ? args[2] : "-", &document)) {
      std::fprintf(stderr, "xsqctl: cannot read %s\n", args[2].c_str());
      return 1;
    }
    return RunSession(client, [&args, &document](Client& c,
                                                 bool* transport_failed) {
      auto open = Send(c, "OPEN " + args[1], transport_failed);
      if (!open.has_value()) return 1;
      if (!open->status.ok()) return Finish(*open);
      const std::string id = open->ok_payload;
      auto push = Send(c, "PUSH " + id + " " + LineProtocol::Escape(document),
                       transport_failed);
      if (!push.has_value()) return 1;
      if (!push->status.ok()) {
        std::fprintf(stderr, "xsqctl: PUSH failed\n");
        return 1;
      }
      auto close = Send(c, "CLOSE " + id, transport_failed);
      return close.has_value() ? Finish(*close) : 1;
    });
  }
  return Usage();
}
