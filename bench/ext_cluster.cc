// Extension experiment: the cluster front tier (src/cluster/), enforced
// by exit status against real xsqd shard processes (argv[1] names the
// binary; the ctest registration passes $<TARGET_FILE:xsqd>).
//
//   (a) transcript parity: a client speaking to the router over a
//       3-shard cluster reads the exact bytes a single-node xsqd would
//       have answered — RECORD/OPEN/RUNCACHED/CLOSE/EVICT, including
//       the error replies;
//   (b) work split: under a concurrent RUNCACHED replay load on
//       3 shards, the ring spreads the work so that the total replayed
//       events are >= 1.5x the busiest shard's (each shard's
//       tape_events_replayed delta from its own STATS). This needs no
//       spare cores, so it holds on any host. Each shard's CPU-seconds
//       and the 3-shard vs 1-shard wall-clock replay rate are reported
//       beside it, not gated: they measure the host's spare cores
//       (the bench process, its client threads and the shards share
//       them), not the ring;
//   (c) scatter-gather exactness: the router's merged cluster view
//       equals the sum of per-shard scrapes — summed STATS counters
//       and the merged xsq_tape_replay_us histogram count;
//   (d) SIGKILL recovery: after a shard is killed -9, every re-issued
//       idempotent request succeeds via failover, the dead shard's
//       keys remap within one probe pass (fail_threshold = 1), the
//       survivors' keys do not move, and every document replays with
//       the same bytes as before the kill.
//
// Any violated bound fails the run (exit status 1).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/timing.h"
#include "cluster/router.h"
#include "daemon_rig.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "net/verbs.h"
#include "obs/exposition.h"
#include "service/query_service.h"
#include "service/stats.h"

namespace xsq::bench {
namespace {

using cluster::Router;
using cluster::ShardHealth;
using net::LineProtocol;
using service::QueryService;
using service::ServiceConfig;
using service::StatsSnapshot;

constexpr const char* kQuery = "/dblp/article/title/text()";

struct Cluster {
  std::vector<std::unique_ptr<DaemonProcess>> shards;
  std::unique_ptr<Router> router;

  bool Start(const std::string& binary, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      auto shard = std::make_unique<DaemonProcess>();
      if (!shard->Start({binary, "--listen=0", "--workers=2"})) {
        std::fprintf(stderr, "failed to start shard %zu\n", i);
        return false;
      }
      shards.push_back(std::move(shard));
    }
    router = StartRouter(shards, 1);
    return router != nullptr;
  }
};

// Runs `commands` through a fresh router connection (one handler) and
// returns the per-command reply blocks.
std::vector<std::string> RunScript(Router* router,
                                   const std::vector<std::string>& commands) {
  auto handler = router->MakeHandler();
  std::vector<std::string> replies;
  replies.reserve(commands.size());
  for (const std::string& command : commands) {
    std::string out;
    handler->HandleLine(command, &out);
    replies.push_back(std::move(out));
  }
  return replies;
}

size_t CountItems(const std::vector<std::string>& replies) {
  size_t items = 0;
  for (const std::string& block : replies) {
    for (size_t at = 0; (at = block.find("ITEM ", at)) != std::string::npos;
         at += 5) {
      if (at == 0 || block[at - 1] == '\n') ++items;
    }
  }
  return items;
}

// ------------------------------------------------- (a) transcript parity

int TranscriptParity(Cluster* cluster, const std::vector<std::string>& docs,
                     std::vector<std::string>* cached_blocks, bool* match) {
  std::printf("\n(a) Router transcript vs single-node xsqd\n");
  std::vector<std::string> commands;
  for (size_t i = 0; i < docs.size(); ++i) {
    commands.push_back("RECORD doc" + std::to_string(i) + " " +
                       LineProtocol::Escape(docs[i]));
  }
  commands.push_back(std::string("OPEN ") + kQuery);
  for (size_t i = 0; i < docs.size(); ++i) {
    commands.push_back("RUNCACHED 1 doc" + std::to_string(i));
  }
  commands.push_back("CLOSE 1");
  commands.push_back("EVICT doc0");
  commands.push_back("RUNCACHED 2 doc0");  // error parity: unknown session
  commands.push_back(std::string("OPEN ") + kQuery);
  commands.push_back("RUNCACHED 2 doc0");  // error parity: evicted document
  commands.push_back("CLOSE 2");

  std::vector<std::string> expected;
  {
    QueryService service(ServiceConfig{});
    LineProtocol local(&service);
    for (const std::string& command : commands) {
      std::string out;
      local.HandleLine(command, &out);
      expected.push_back(std::move(out));
    }
    local.ReleaseAll();
    service.Shutdown();
  }
  std::vector<std::string> actual = RunScript(cluster->router.get(), commands);

  size_t first_diff = commands.size();
  for (size_t i = 0; i < commands.size(); ++i) {
    if (expected[i] != actual[i]) {
      first_diff = i;
      break;
    }
  }
  *match = first_diff == commands.size();
  // Keep the per-document RUNCACHED blocks: leg (d) re-checks them
  // byte-for-byte after the SIGKILL recovery. (The reply block carries
  // no session id, so it is comparable across sessions.)
  cached_blocks->assign(expected.begin() + docs.size() + 1,
                        expected.begin() + docs.size() + 1 + docs.size());

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"commands", std::to_string(commands.size())});
  table.AddRow({"items via router", std::to_string(CountItems(actual))});
  table.AddRow({"items single node", std::to_string(CountItems(expected))});
  table.AddRow({"first divergence",
                *match ? "none" : commands[first_diff]});
  table.Print();
  if (!*match) {
    std::fprintf(stderr, "router:\n%.400s\nsingle node:\n%.400s\n",
                 actual[first_diff].c_str(), expected[first_diff].c_str());
  }
  std::printf("bound: byte-identical transcript -> %s\n",
              *match ? "PASS" : "FAIL");
  return 0;
}

// ------------------------------------------------------- (b) work split

// One shard's STATS, scraped directly rather than through the router.
Result<StatsSnapshot> ScrapeStats(uint16_t port) {
  net::ClientConfig config;
  config.port = port;
  net::Client direct(config);
  XSQ_ASSIGN_OR_RETURN(net::Response stats, direct.Request("STATS"));
  if (!stats.status.ok()) return stats.status;
  return StatsSnapshot::Parse(net::BlockText(stats.lines, "STAT"));
}

// CPU time a process has used so far (utime + stime, fields 14 and 15
// of /proc/<pid>/stat), in seconds; 0 when it cannot be read.
double CpuSeconds(pid_t pid) {
  std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return 0.0;
  char buf[1024];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, file);
  std::fclose(file);
  buf[n] = '\0';
  // The command name (field 2) is parenthesised and may hold spaces;
  // field 3 onwards follows the last ')'.
  const char* rest = std::strrchr(buf, ')');
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  if (rest == nullptr ||
      std::sscanf(rest + 1, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u "
                            "%llu %llu",
                  &utime, &stime) != 2) {
    return 0.0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Aggregate replay rate: `kThreads` concurrent router connections, each
// with one session, replaying the recorded corpus round-robin.
double ReplayRate(Router* router, size_t docs, int rounds, bool* ok) {
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<char> success(kThreads, 0);
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto handler = router->MakeHandler();
      std::string out;
      if (!handler->HandleLine(std::string("OPEN ") + kQuery, &out) ||
          out.rfind("OK ", 0) != 0) {
        return;
      }
      std::string id = out.substr(3, out.find('\n') - 3);
      for (int r = 0; r < rounds; ++r) {
        for (size_t d = 0; d < docs; ++d) {
          std::string reply;
          handler->HandleLine(
              "RUNCACHED " + id + " doc" + std::to_string(d), &reply);
          if (reply.find("\nOK\n") == std::string::npos &&
              reply.rfind("OK\n", 0) != 0) {
            return;
          }
        }
      }
      std::string closed;
      handler->HandleLine("CLOSE " + id, &closed);
      success[t] = 1;
    });
  }
  for (std::thread& thread : threads) thread.join();
  double elapsed = Seconds(start);
  *ok = true;
  for (char s : success) *ok = *ok && s != 0;
  return static_cast<double>(kThreads) * rounds * static_cast<double>(docs) /
         elapsed;
}

int WorkSplit(const std::string& binary, Cluster* three,
              const std::vector<std::string>& docs, bool* splits) {
  std::printf("\n(b) Replay work split over 3 shards; throughput vs 1\n");
  Cluster one;
  if (!one.Start(binary, 1)) return 1;
  std::vector<std::string> records;
  for (size_t i = 0; i < docs.size(); ++i) {
    records.push_back("RECORD doc" + std::to_string(i) + " " +
                      LineProtocol::Escape(docs[i]));
  }
  // (Re-)record everywhere: leg (a) evicted doc0 from the 3-shard
  // cluster, and the 1-shard comparator starts empty.
  for (const std::string& block : RunScript(three->router.get(), records)) {
    if (block.rfind("OK ", 0) != 0) return 1;
  }
  for (const std::string& block : RunScript(one.router.get(), records)) {
    if (block.rfind("OK ", 0) != 0) return 1;
  }

  constexpr int kRounds = 6;
  bool ok_one = false;
  bool ok_three = false;
  ReplayRate(one.router.get(), docs.size(), 1, &ok_one);  // warm up
  const double cpu_one_before = CpuSeconds(one.shards[0]->pid());
  double rate_one = ReplayRate(one.router.get(), docs.size(), kRounds,
                               &ok_one);
  const double cpu_one = CpuSeconds(one.shards[0]->pid()) - cpu_one_before;
  ReplayRate(three->router.get(), docs.size(), 1, &ok_three);

  const size_t n = three->shards.size();
  std::vector<uint64_t> events(n);
  std::vector<double> cpu(n);
  for (size_t i = 0; i < n; ++i) {
    Result<StatsSnapshot> before = ScrapeStats(three->shards[i]->port());
    if (!before.ok()) return 1;
    events[i] = before->tape_events_replayed;
    cpu[i] = CpuSeconds(three->shards[i]->pid());
  }
  double rate_three = ReplayRate(three->router.get(), docs.size(), kRounds,
                                 &ok_three);
  uint64_t total = 0;
  uint64_t busiest = 0;
  for (size_t i = 0; i < n; ++i) {
    Result<StatsSnapshot> after = ScrapeStats(three->shards[i]->port());
    if (!after.ok()) return 1;
    events[i] = after->tape_events_replayed - events[i];
    cpu[i] = CpuSeconds(three->shards[i]->pid()) - cpu[i];
    total += events[i];
    busiest = std::max(busiest, events[i]);
  }
  const double split =
      busiest > 0 ? static_cast<double>(total) / static_cast<double>(busiest)
                  : 0.0;
  const double wall = rate_one > 0.0 ? rate_three / rate_one : 0.0;
  *splits = ok_one && ok_three && split >= 1.5;

  TablePrinter shards({"Shard", "Events replayed", "CPU-seconds"});
  for (size_t i = 0; i < n; ++i) {
    shards.AddRow({std::to_string(i), std::to_string(events[i]),
                   FormatDouble(cpu[i], 2)});
  }
  shards.AddRow({"1-shard comparator", "-", FormatDouble(cpu_one, 2)});
  shards.Print();
  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"hardware threads",
                std::to_string(std::thread::hardware_concurrency())});
  table.AddRow({"1-shard replays/s", FormatDouble(rate_one, 1)});
  table.AddRow({"3-shard replays/s", FormatDouble(rate_three, 1)});
  table.AddRow({"wall-clock ratio (reported)", FormatDouble(wall, 2)});
  table.AddRow({"ring split: total / busiest", FormatDouble(split, 2)});
  table.Print();
  std::printf("bound: ring split >= 1.5, every replay answered -> %s\n",
              *splits ? "PASS" : "FAIL");
  return 0;
}

// -------------------------------------------- (c) scatter-gather exactness

int ScatterExactness(Cluster* cluster, bool* exact) {
  std::printf("\n(c) Merged cluster view vs per-shard scrapes\n");
  // Quiesced cluster: the prober is manual and no traffic runs between
  // the direct scrapes and the router's scatter, so every counter the
  // scrapes themselves do not move must agree exactly.
  uint64_t sessions = 0;
  uint64_t replays = 0;
  uint64_t items = 0;
  uint64_t hist_count = 0;
  for (const auto& shard : cluster->shards) {
    Result<StatsSnapshot> snap = ScrapeStats(shard->port());
    if (!snap.ok()) return 1;
    sessions += snap->sessions_opened;
    replays += snap->tape_replays;
    items += snap->items_emitted;

    net::ClientConfig config;
    config.port = shard->port();
    net::Client direct(config);
    auto metrics = direct.Request("METRICS");
    if (!metrics.ok() || !metrics->status.ok()) return 1;
    auto parsed =
        obs::Exposition::Parse(net::BlockText(metrics->lines, "METRIC"));
    if (!parsed.ok()) return 1;
    const obs::ExpositionSeries* series =
        parsed->Find("xsq_tape_replay_us");
    if (series != nullptr) hist_count += series->hist.count;
  }

  StatsSnapshot merged = cluster->router->ClusterStats();
  obs::Exposition cluster_metrics = cluster->router->ClusterMetrics();
  const obs::ExpositionSeries* merged_hist =
      cluster_metrics.Find("xsq_tape_replay_us");
  uint64_t merged_count = merged_hist != nullptr ? merged_hist->hist.count : 0;

  *exact = merged.sessions_opened == sessions &&
           merged.tape_replays == replays && merged.items_emitted == items &&
           merged_count == hist_count && hist_count == replays &&
           cluster->router->own_counters().scatter_failures_total == 0;

  TablePrinter table({"Quantity", "Shard sum", "Cluster view"});
  table.AddRow({"sessions_opened", std::to_string(sessions),
                std::to_string(merged.sessions_opened)});
  table.AddRow({"tape_replays", std::to_string(replays),
                std::to_string(merged.tape_replays)});
  table.AddRow({"items_emitted", std::to_string(items),
                std::to_string(merged.items_emitted)});
  table.AddRow({"replay histogram count", std::to_string(hist_count),
                std::to_string(merged_count)});
  table.Print();
  std::printf("bound: merged view == sum of scrapes -> %s\n",
              *exact ? "PASS" : "FAIL");
  return 0;
}

// ------------------------------------------------- (d) SIGKILL recovery

int KillRecovery(Cluster* cluster, const std::vector<std::string>& docs,
                 const std::vector<std::string>& cached_blocks,
                 bool* recovers) {
  std::printf("\n(d) SIGKILL one shard: failover, remap, replay parity\n");
  Router* router = cluster->router.get();

  std::map<size_t, std::vector<size_t>> by_owner;
  std::vector<size_t> owner_before(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto owner = router->OwnerOf("doc" + std::to_string(i));
    if (!owner.has_value()) return 1;
    owner_before[i] = *owner;
    by_owner[*owner].push_back(i);
  }
  // Kill the owner of the most keys: the worst case for remapping.
  size_t victim = by_owner.begin()->first;
  for (const auto& [shard, keys] : by_owner) {
    if (keys.size() > by_owner[victim].size()) victim = shard;
  }
  const size_t victim_keys = by_owner[victim].size();
  cluster->shards[victim]->Kill(SIGKILL);

  // Every re-issued idempotent request must succeed: the ring owner is
  // dead, so RECORD fails over to the next live owner.
  const uint64_t failovers_before = router->own_counters().failovers_total;
  size_t rerecorded = 0;
  {
    auto handler = router->MakeHandler();
    for (size_t i : by_owner[victim]) {
      std::string out;
      handler->HandleLine("RECORD doc" + std::to_string(i) + " " +
                              LineProtocol::Escape(docs[i]),
                          &out);
      if (out.rfind("OK ", 0) == 0) ++rerecorded;
    }
  }
  const uint64_t failovers =
      router->own_counters().failovers_total - failovers_before;

  // One probe pass (fail_threshold = 1) must mark the shard dead and
  // remap exactly its keys.
  router->ProbeNow();
  bool marked_dead = router->shard_health(victim) == ShardHealth::kDead;
  bool remapped = true;
  bool survivors_stable = true;
  for (size_t i = 0; i < docs.size(); ++i) {
    auto owner = router->OwnerOf("doc" + std::to_string(i));
    if (!owner.has_value()) {
      remapped = false;
      continue;
    }
    if (owner_before[i] == victim) {
      remapped = remapped && *owner != victim;
    } else {
      survivors_stable = survivors_stable && *owner == owner_before[i];
    }
  }

  // And the data answers exactly as before the kill.
  std::vector<std::string> commands;
  commands.push_back(std::string("OPEN ") + kQuery);
  for (size_t i = 0; i < docs.size(); ++i) {
    commands.push_back("RUNCACHED <id> doc" + std::to_string(i));
  }
  auto handler = router->MakeHandler();
  std::string opened;
  handler->HandleLine(commands[0], &opened);
  if (opened.rfind("OK ", 0) != 0) return 1;
  std::string id = opened.substr(3, opened.find('\n') - 3);
  size_t replay_matches = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    std::string reply;
    handler->HandleLine("RUNCACHED " + id + " doc" + std::to_string(i),
                        &reply);
    if (reply == cached_blocks[i]) ++replay_matches;
  }
  std::string closed;
  handler->HandleLine("CLOSE " + id, &closed);

  *recovers = rerecorded == victim_keys && marked_dead && remapped &&
              survivors_stable && replay_matches == docs.size();

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"victim shard", std::to_string(victim)});
  table.AddRow({"victim's keys", std::to_string(victim_keys)});
  table.AddRow({"re-records succeeded", std::to_string(rerecorded)});
  table.AddRow({"failovers counted", std::to_string(failovers)});
  table.AddRow({"dead after one probe", marked_dead ? "yes" : "no"});
  table.AddRow({"keys remapped / stable",
                std::string(remapped ? "yes" : "no") + " / " +
                    (survivors_stable ? "yes" : "no")});
  table.AddRow({"replay blocks identical",
                std::to_string(replay_matches) + "/" +
                    std::to_string(docs.size())});
  table.Print();
  std::printf(
      "bound: every retried request succeeds, remap within one probe "
      "pass, byte-identical replays -> %s\n",
      *recovers ? "PASS" : "FAIL");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <path-to-xsqd-binary>\n", argv[0]);
    return 2;
  }
  PrintHeader("Extension: cluster",
              "router transcript parity + 3-shard work split + scatter-gather "
              "exactness + SIGKILL recovery");
  std::vector<std::string> docs;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    docs.push_back(datagen::GenerateDblp(ScaledBytes(512u << 10), seed));
  }

  Cluster three;
  if (!three.Start(argv[1], 3)) return 1;

  bool parity = false;
  bool splits = false;
  bool exact = false;
  bool recovers = false;
  std::vector<std::string> cached_blocks;
  if (TranscriptParity(&three, docs, &cached_blocks, &parity) != 0) return 1;
  if (WorkSplit(argv[1], &three, docs, &splits) != 0) return 1;
  if (ScatterExactness(&three, &exact) != 0) return 1;
  if (KillRecovery(&three, docs, cached_blocks, &recovers) != 0) return 1;

  std::printf(
      "\nExpected shape: the router is invisible to clients (byte-identical\n"
      "transcripts), the ring spreads replay work over the shards (so\n"
      "throughput scales with shards when the host has spare cores), the\n"
      "merged observability view is the exact sum of per-shard scrapes,\n"
      "and a SIGKILLed shard costs one probe interval of remapping with\n"
      "zero lost idempotent requests.\n");
  return parity && splits && exact && recovers ? 0 : 1;
}

}  // namespace
}  // namespace xsq::bench

int main(int argc, char** argv) { return xsq::bench::Main(argc, argv); }
