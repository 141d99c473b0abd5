// The forked-daemon rig of the network benches: xsqd and xsq_router
// processes started from an argv vector, an in-process router over
// forked shards, REPLSTATUS inventories and polling waits.
#ifndef XSQ_BENCH_DAEMON_RIG_H_
#define XSQ_BENCH_DAEMON_RIG_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "net/client.h"

namespace xsq::bench {

// One forked daemon speaking the LISTENING-banner contract (xsqd or
// xsq_router; the argv vector decides, so pass --listen=0 or a port).
// stdin is parked on /dev/null (the daemon serves sockets after stdin
// EOF, but a closed stdin would still race startup) and stdout is piped
// back so the parent can read the banner. Kill(SIGKILL) is the benches'
// failure injection.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { Kill(SIGTERM); }

  bool Start(const std::vector<std::string>& argv) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      int devnull = ::open("/dev/null", O_RDONLY);
      if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
      std::vector<char*> args;
      for (const std::string& arg : argv) {
        args.push_back(const_cast<char*>(arg.c_str()));
      }
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      std::_Exit(127);
    }
    ::close(pipefd[1]);
    // Byte-at-a-time: the pipe stays open for the daemon's lifetime, so
    // a buffered reader would block forever.
    std::string banner;
    char ch = 0;
    while (banner.find('\n') == std::string::npos &&
           ::read(pipefd[0], &ch, 1) == 1) {
      banner.push_back(ch);
    }
    out_fd_ = pipefd[0];
    unsigned port = 0;
    if (std::sscanf(banner.c_str(), "LISTENING %u", &port) != 1 ||
        port == 0) {
      Kill(SIGKILL);
      return false;
    }
    port_ = static_cast<uint16_t>(port);
    return true;
  }

  void Kill(int sig) {
    if (pid_ > 0) {
      ::kill(pid_, sig);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// An in-process router over forked shards. Health moves only on
// ProbeNow (no prober thread), one failed probe marks a shard dead, and
// the router's own clients never retry: failover is the router's job.
// nullptr on failure, reported on stderr.
inline std::unique_ptr<cluster::Router> StartRouter(
    const std::vector<std::unique_ptr<DaemonProcess>>& shards,
    size_t replication_factor) {
  cluster::RouterConfig config;
  for (const auto& shard : shards) {
    config.shards.push_back(net::Endpoint{"127.0.0.1", shard->port()});
  }
  config.start_prober = false;
  config.probe.fail_threshold = 1;
  config.backend.connect_timeout_ms = 500;
  config.backend.client_max_retries = 0;
  config.replication.factor = replication_factor;
  auto created = cluster::Router::Create(std::move(config));
  if (!created.ok()) {
    std::fprintf(stderr, "router init failed: %s\n",
                 created.status().ToString().c_str());
    return nullptr;
  }
  (*created)->ProbeNow();
  return *std::move(created);
}

// The shard's resident-document inventory, from its REPLSTATUS verb
// over a throwaway connection.
inline bool Inventory(uint16_t port, std::set<std::string>* docs) {
  net::ClientConfig config;
  config.port = port;
  net::Client direct(config);
  auto reply = direct.Request("REPLSTATUS");
  if (!reply.ok() || !reply->status.ok()) return false;
  docs->clear();
  for (const std::string& line : reply->lines) {
    if (line.rfind("DOC ", 0) != 0) continue;
    size_t end = line.find(' ', 4);
    docs->insert(line.substr(4, end - 4));
  }
  return true;
}

// Polls `predicate` every `poll_ms` until it holds or `timeout_ms`
// passes; returns its last value.
template <typename Predicate>
bool WaitFor(Predicate predicate, int timeout_ms, int poll_ms = 1) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  return predicate();
}

}  // namespace xsq::bench

#endif  // XSQ_BENCH_DAEMON_RIG_H_
