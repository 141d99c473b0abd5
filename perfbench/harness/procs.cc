#include "procs.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/client.h"

namespace perfbench {

std::string BinDir() {
  char path[4096];
  ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return ".";
  std::string exe(path, static_cast<size_t>(n));
  return exe.substr(0, exe.rfind('/'));
}

std::unique_ptr<Daemon> Daemon::Start(const std::string& binary,
                                      const std::vector<std::string>& args,
                                      std::string* error) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(1);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(pipefd[1]);
  std::unique_ptr<Daemon> d(new Daemon());
  d->pid_ = pid;
  d->out_fd_ = pipefd[0];
  // Byte at a time: the pipe stays open for the daemon's lifetime.
  std::string banner;
  char ch = 0;
  pollfd pfd{d->out_fd_, POLLIN, 0};
  while (banner.find('\n') == std::string::npos) {
    if (::poll(&pfd, 1, 10000) <= 0 || ::read(d->out_fd_, &ch, 1) != 1) break;
    banner.push_back(ch);
  }
  unsigned port = 0;
  if (std::sscanf(banner.c_str(), "LISTENING %u", &port) != 1 || port == 0) {
    *error = binary + " did not start (banner '" + banner + "')";
    d->Stop(SIGKILL);
    return nullptr;
  }
  d->port_ = static_cast<uint16_t>(port);
  return d;
}

Daemon::~Daemon() { Stop(SIGTERM); }

void Daemon::Stop(int sig) {
  if (pid_ > 0) {
    ::kill(pid_, sig);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::unique_ptr<Cluster> Cluster::Start(std::string* error) {
  std::unique_ptr<Cluster> c(new Cluster());
  const std::string dir = BinDir();
  std::vector<std::string> router_args = {
      "--listen=0", "--replication-factor=" + std::to_string(kReplication),
      "--pool-conns=4"};
  for (int i = 0; i < kShards; ++i) {
    // One service worker: sessions are a minority of the load, and
    // RUNCACHED runs on the server's protocol threads.
    auto shard = Daemon::Start(dir + "/xsqd",
                               {"--listen=0", "--workers=1", "--doc-cache=0"},
                               error);
    if (shard == nullptr) return nullptr;
    router_args.push_back("--shard=127.0.0.1:" +
                          std::to_string(shard->port()));
    c->shards_.push_back(std::move(shard));
  }
  c->router_ = Daemon::Start(dir + "/xsq_router", router_args, error);
  if (c->router_ == nullptr) return nullptr;
  return c;
}

double Cluster::PeakRssMb() const {
  double total = router_->PeakRssMb();
  for (const auto& s : shards_) total += s->PeakRssMb();
  return total;
}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineConn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
}

bool LineConn::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool LineConn::ReadLine(std::string* line, int timeout_ms) {
  for (;;) {
    size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ > (1u << 20)) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void LineConn::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::vector<std::string> RequestLines(uint16_t port, const std::string& line) {
  xsq::net::ClientConfig config;
  config.port = port;
  config.max_retries = 0;
  xsq::net::Client client(config);
  auto reply = client.Request(line);
  if (!reply.ok() || !reply->status.ok()) return {};
  return reply->lines;
}

std::vector<std::string> ResidentDocs(xsq::net::Client& shard) {
  std::vector<std::string> docs;
  auto reply = shard.Request("REPLSTATUS");
  if (!reply.ok() || !reply->status.ok()) return docs;
  for (const std::string& line : reply->lines) {
    if (line.rfind("DOC ", 0) != 0) continue;
    docs.push_back(line.substr(4, line.find(' ', 4) - 4));
  }
  return docs;
}

std::map<std::string, double> Scrape(uint16_t port, const std::string& verb) {
  std::map<std::string, double> out;
  for (const std::string& line : RequestLines(port, verb)) {
    // "METRIC <name> <value>" or "STAT <name> <value>"; comments skipped.
    size_t a = line.find(' ');
    if (a == std::string::npos || line[a + 1] == '#') continue;
    size_t b = line.rfind(' ');
    if (b <= a) continue;
    out[line.substr(a + 1, b - a - 1)] = std::strtod(line.c_str() + b + 1, nullptr);
  }
  return out;
}

}  // namespace perfbench
