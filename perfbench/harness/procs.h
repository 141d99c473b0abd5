// The processes under test and the raw connections the harness holds.
//
// Daemon forks one xsqd or xsq_router with --listen=0 and reads back
// its "LISTENING <port>" banner. Children get PR_SET_PDEATHSIG, so a
// harness that dies takes them along; the destructor stops and reaps
// them otherwise.
#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace xsq::net {
class Client;
}

namespace perfbench {

// Directory holding the harness binary, xsqd and xsq_router.
std::string BinDir();

class Daemon {
 public:
  static std::unique_ptr<Daemon> Start(const std::string& binary,
                                       const std::vector<std::string>& args,
                                       std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Sends `sig` and reaps the process (SIGKILL after 3 s).
  void Stop(int sig);
  uint16_t port() const { return port_; }
  // Peak resident set (VmHWM) in MiB; 0 once stopped.
  double PeakRssMb() const;

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// Three xsqd shards behind one xsq_router at --replication-factor=2.
class Cluster {
 public:
  static constexpr int kShards = 3;
  static constexpr int kReplication = 2;

  static std::unique_ptr<Cluster> Start(std::string* error);

  uint16_t router_port() const { return router_->port(); }
  uint16_t shard_port(int i) const { return shards_[i]->port(); }
  Daemon& shard(int i) { return *shards_[i]; }
  // Summed peak RSS of the router and the running shards, MiB.
  double PeakRssMb() const;

 private:
  std::vector<std::unique_ptr<Daemon>> shards_;
  std::unique_ptr<Daemon> router_;
};

// A blocking line connection to 127.0.0.1:port, for the paths
// net::Client does not cover (EVENT frames on a subscriber connection).
class LineConn {
 public:
  LineConn() = default;
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool Connect(uint16_t port);
  bool Send(std::string_view bytes);
  // Next line without its newline; false on EOF, error or timeout.
  bool ReadLine(std::string* line, int timeout_ms);
  // Unblocks a reader in another thread.
  void Shutdown();

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

// One request over a throwaway net::Client; the reply's payload lines,
// or an empty vector when the request failed.
std::vector<std::string> RequestLines(uint16_t port, const std::string& line);

// Documents resident on a shard (its REPLSTATUS), asked over a
// connection the caller keeps for repeated polls.
std::vector<std::string> ResidentDocs(xsq::net::Client& shard);

// "METRIC name value" / "STAT name value" lines as a map; the verb is
// METRICS or STATS. Histogram bucket lines keep their label text in
// the name.
std::map<std::string, double> Scrape(uint16_t port, const std::string& verb);

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
