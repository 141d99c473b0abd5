// Extension experiment: the replication plane (ReplicationConfig
// factor >= 2), enforced by exit status against real xsqd shard
// processes (argv[1] names the binary; the ctest registration passes
// $<TARGET_FILE:xsqd>). rf=2 over 3 shards throughout:
//
//   (a) fanout placement: after RECORD + WaitIdle every tape resides
//       on exactly its owner set (primary + next ring owner), nothing
//       is over-replicated, and the replication queue reports zero
//       failures;
//   (b) write overhead: client-observed RECORD p50 at rf=2 is at most
//       15% above rf=1 over the same shards — the replica copies ride
//       the asynchronous fanout queue, not the client's ACK path;
//   (c) SIGKILL failover: one shard killed -9 mid-workload, then 100%
//       of RUNCACHED requests for its keys succeed with ZERO client
//       re-records and byte-identical reply blocks — first through
//       transport failover while the corpse is still in the ring,
//       then through remapped ownership after one probe pass;
//   (d) anti-entropy: one probe pass plus one sweep after the kill
//       restores the replication factor among the survivors — every
//       key ends up resident on all of its (now two) live owners.
//
// Any violated bound fails the run (exit status 1).
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util/timing.h"
#include "cluster/router.h"
#include "daemon_rig.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "service/query_service.h"

namespace xsq::bench {
namespace {

using cluster::Router;
using cluster::ShardHealth;
using net::LineProtocol;

constexpr const char* kQuery = "/dblp/article/title/text()";
constexpr double kRecordOverheadBound = 0.15;  // rf=2 vs rf=1 p50

// Opens a session on `handler`; empty string on failure.
std::string OpenSession(net::ConnectionHandler* handler) {
  std::string opened;
  handler->HandleLine(std::string("OPEN ") + kQuery, &opened);
  if (opened.rfind("OK ", 0) != 0) {
    std::fprintf(stderr, "OPEN failed: %.200s\n", opened.c_str());
    return "";
  }
  return opened.substr(3, opened.find('\n') - 3);
}

// Replays every doc through the session and returns the reply blocks
// (they carry no session id, so they compare across sessions).
void ReplayDocs(net::ConnectionHandler* handler, const std::string& id,
                size_t docs, std::vector<std::string>* blocks) {
  blocks->clear();
  for (size_t i = 0; i < docs; ++i) {
    std::string reply;
    handler->HandleLine("RUNCACHED " + id + " rdoc" + std::to_string(i),
                        &reply);
    blocks->push_back(std::move(reply));
  }
}

// Replays every doc through one fresh session.
bool ReplayAll(net::ConnectionHandler* handler, size_t docs,
               std::vector<std::string>* blocks) {
  std::string id = OpenSession(handler);
  if (id.empty()) return false;
  ReplayDocs(handler, id, docs, blocks);
  std::string closed;
  handler->HandleLine("CLOSE " + id, &closed);
  return true;
}

// --------------------------------------------------- (a) fanout placement

int FanoutPlacement(Router* router, const std::vector<std::string>& docs,
                    bool* placed) {
  std::printf("\n(a) RECORD fan-out: every tape on exactly its owner set\n");
  auto handler = router->MakeHandler();
  for (size_t i = 0; i < docs.size(); ++i) {
    std::string out;
    handler->HandleLine("RECORD rdoc" + std::to_string(i) + " " +
                            LineProtocol::Escape(docs[i]),
                        &out);
    if (out.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "RECORD failed: %.200s\n", out.c_str());
      return 1;
    }
  }
  if (!router->replicator()->WaitIdle()) {
    std::fprintf(stderr, "replication queue did not drain\n");
    return 1;
  }

  std::vector<std::set<std::string>> resident(router->shard_count());
  for (size_t s = 0; s < router->shard_count(); ++s) {
    if (!Inventory(router->backend(s)->address().port, &resident[s])) {
      return 1;
    }
  }

  size_t exact = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    std::string name = "rdoc" + std::to_string(i);
    std::vector<size_t> owners = router->shard_map().Owners(
        name, router->replication_factor(), router->ServingMask());
    bool ok = owners.size() == router->replication_factor();
    for (size_t s = 0; s < router->shard_count(); ++s) {
      bool should = std::find(owners.begin(), owners.end(), s) != owners.end();
      ok = ok && resident[s].count(name) == (should ? 1u : 0u);
    }
    if (ok) ++exact;
  }
  auto counters = router->replicator()->counters();
  *placed = exact == docs.size() && counters.failed == 0 &&
            counters.pending == 0 && counters.fanouts == docs.size();

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"documents", std::to_string(docs.size())});
  table.AddRow({"exact owner-set residency",
                std::to_string(exact) + "/" + std::to_string(docs.size())});
  table.AddRow({"fanouts enqueued", std::to_string(counters.fanouts)});
  table.AddRow({"jobs delivered", std::to_string(counters.repaired)});
  table.AddRow({"jobs failed", std::to_string(counters.failed)});
  table.Print();
  std::printf("bound: every tape on its owner set, zero failures -> %s\n",
              *placed ? "PASS" : "FAIL");
  return 0;
}

// ----------------------------------------------------- (b) write overhead

int RecordOverhead(Router* rf1, Router* rf2, bool* within) {
  std::printf("\n(b) Client-observed RECORD p50, rf=2 vs rf=1\n");
  const std::string payload =
      LineProtocol::Escape(datagen::GenerateDblp(ScaledBytes(32u << 10), 9));
  constexpr int kWarmup = 10;
  constexpr int kSamples = 120;
  auto handler1 = rf1->MakeHandler();
  auto handler2 = rf2->MakeHandler();
  auto one = [&](net::ConnectionHandler* handler, const char* prefix, int i,
                 double* elapsed) {
    std::string out;
    auto start = std::chrono::steady_clock::now();
    bool ok = true;
    handler->HandleLine(std::string("RECORD ") + prefix + std::to_string(i) +
                            " " + payload,
                        &out);
    ok = out.rfind("OK ", 0) == 0;
    *elapsed = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    return ok;
  };
  // Strictly alternating samples so both variants see the same load
  // profile (the rf=2 fanout workers run concurrently, as they would
  // in production).
  std::vector<double> p1;
  std::vector<double> p2;
  double elapsed = 0.0;
  for (int i = 0; i < kWarmup + kSamples; ++i) {
    if (!one(handler1.get(), "p1doc", i, &elapsed)) return 1;
    if (i >= kWarmup) p1.push_back(elapsed);
    if (!one(handler2.get(), "p2doc", i, &elapsed)) return 1;
    if (i >= kWarmup) p2.push_back(elapsed);
  }
  if (!rf2->replicator()->WaitIdle()) return 1;

  double p50_rf1 = Median(p1);
  double p50_rf2 = Median(p2);
  double overhead = p50_rf1 > 0.0 ? p50_rf2 / p50_rf1 - 1.0 : 0.0;
  if (overhead < 0.0) overhead = 0.0;  // noise floor: rf=2 won
  *within = overhead <= kRecordOverheadBound;

  TablePrinter table({"Variant", "RECORD p50 (us)", "Overhead"});
  table.AddRow({"rf=1", FormatDouble(p50_rf1 * 1e6, 1), "-"});
  table.AddRow({"rf=2", FormatDouble(p50_rf2 * 1e6, 1),
                FormatDouble(overhead * 100.0, 2) + "%"});
  table.Print();
  std::printf("bound: <= %.0f%% -> %s\n", kRecordOverheadBound * 100.0,
              *within ? "PASS" : "FAIL");
  return 0;
}

// ---------------------------------------------------- (c) SIGKILL failover

int KillFailover(std::vector<std::unique_ptr<DaemonProcess>>* shards,
                 Router* router, size_t docs, size_t* victim_out,
                 bool* serves) {
  std::printf("\n(c) SIGKILL the primary: replicas serve, zero re-records\n");

  // Baseline blocks before the kill, through a session that stays open
  // across the kill: pre-probe the corpse still looks serving, so a
  // fresh OPEN could land on it — an already-open session replays
  // through per-document failover instead.
  auto handler = router->MakeHandler();
  std::string session = OpenSession(handler.get());
  if (session.empty()) return 1;
  std::vector<std::string> baseline;
  ReplayDocs(handler.get(), session, docs, &baseline);

  // Kill the primary owner of the most keys: the worst case.
  std::map<size_t, size_t> primaries;
  for (size_t i = 0; i < docs; ++i) {
    auto owner = router->OwnerOf("rdoc" + std::to_string(i));
    if (!owner.has_value()) return 1;
    ++primaries[*owner];
  }
  size_t victim = primaries.begin()->first;
  for (const auto& [shard, keys] : primaries) {
    if (keys > primaries[victim]) victim = shard;
  }
  *victim_out = victim;
  const size_t victim_keys = primaries[victim];
  const uint64_t failovers_before = router->own_counters().failovers_total;
  (*shards)[victim]->Kill(SIGKILL);

  // Window 1: the corpse is still in the ring — RUNCACHED reaches it,
  // fails at transport, and fails over to the replica that already
  // holds the tape. No RECORD is ever issued.
  std::vector<std::string> window1;
  ReplayDocs(handler.get(), session, docs, &window1);
  std::string closed;
  handler->HandleLine("CLOSE " + session, &closed);  // primary may be dead
  size_t match1 = 0;
  for (size_t i = 0; i < docs; ++i) {
    if (window1[i] == baseline[i]) ++match1;
  }
  const uint64_t failovers =
      router->own_counters().failovers_total - failovers_before;

  // Window 2: one probe pass remaps the victim's keys onto the shard
  // the fanout already populated.
  router->ProbeNow();
  bool marked_dead = router->shard_health(victim) == ShardHealth::kDead;
  auto fresh = router->MakeHandler();
  std::vector<std::string> window2;
  if (!ReplayAll(fresh.get(), docs, &window2)) return 1;
  size_t match2 = 0;
  for (size_t i = 0; i < docs; ++i) {
    if (window2[i] == baseline[i]) ++match2;
  }

  *serves = match1 == docs && match2 == docs && marked_dead && failovers > 0;

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"victim shard", std::to_string(victim)});
  table.AddRow({"victim's primary keys", std::to_string(victim_keys)});
  table.AddRow({"client re-records", "0"});
  table.AddRow({"pre-probe replays identical",
                std::to_string(match1) + "/" + std::to_string(docs)});
  table.AddRow({"transport failovers", std::to_string(failovers)});
  table.AddRow({"dead after one probe", marked_dead ? "yes" : "no"});
  table.AddRow({"post-probe replays identical",
                std::to_string(match2) + "/" + std::to_string(docs)});
  table.Print();
  std::printf(
      "bound: 100%% of reads served from replicas, byte-identical, zero "
      "re-records -> %s\n",
      *serves ? "PASS" : "FAIL");
  return 0;
}

// -------------------------------------------------------- (d) anti-entropy

int AntiEntropy(Router* router, size_t docs, size_t victim, bool* restored) {
  std::printf("\n(d) Anti-entropy: one probe pass + sweep restores rf\n");
  // The mask-changing probe pass in leg (c) already requested a sweep;
  // a synchronous pass + WaitIdle makes the check deterministic.
  router->replicator()->SweepNow();
  if (!router->replicator()->WaitIdle()) {
    std::fprintf(stderr, "anti-entropy repairs did not drain\n");
    return 1;
  }

  // With two live owners left, full replication means every key is
  // resident on BOTH survivors.
  std::vector<std::set<std::string>> resident(router->shard_count());
  for (size_t s = 0; s < router->shard_count(); ++s) {
    if (s == victim) continue;
    if (!Inventory(router->backend(s)->address().port, &resident[s])) {
      return 1;
    }
  }
  size_t fully_replicated = 0;
  for (size_t i = 0; i < docs; ++i) {
    std::string name = "rdoc" + std::to_string(i);
    bool everywhere = true;
    for (size_t s = 0; s < router->shard_count(); ++s) {
      if (s == victim) continue;
      everywhere = everywhere && resident[s].count(name) == 1;
    }
    if (everywhere) ++fully_replicated;
  }
  auto counters = router->replicator()->counters();
  *restored = fully_replicated == docs && counters.sweeps >= 1 &&
              counters.pending == 0;

  // The operator's view of the same fact.
  auto handler = router->MakeHandler();
  std::string repl_status;
  handler->HandleLine("REPLSTATUS", &repl_status);
  repl_status.resize(repl_status.find('\n'));

  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"keys on every live owner",
                std::to_string(fully_replicated) + "/" +
                    std::to_string(docs)});
  table.AddRow({"sweeps completed", std::to_string(counters.sweeps)});
  table.AddRow({"jobs delivered", std::to_string(counters.repaired)});
  table.AddRow({"jobs failed", std::to_string(counters.failed)});
  table.AddRow({"REPLSTATUS", repl_status});
  table.Print();
  std::printf("bound: factor restored among survivors -> %s\n",
              *restored ? "PASS" : "FAIL");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <path-to-xsqd-binary>\n", argv[0]);
    return 2;
  }
  PrintHeader("Extension: replication",
              "rf=2 fanout placement + RECORD overhead + SIGKILL "
              "replica serving + anti-entropy repair");
  std::vector<std::string> docs;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    docs.push_back(datagen::GenerateDblp(ScaledBytes(128u << 10), seed));
  }

  std::vector<std::unique_ptr<DaemonProcess>> shards;
  for (size_t i = 0; i < 3; ++i) {
    auto shard = std::make_unique<DaemonProcess>();
    // --doc-cache=0 (unlimited): leg (b)'s throwaway corpus must not
    // LRU-evict the replicated documents leg (d) audits.
    if (!shard->Start({argv[1], "--listen=0", "--workers=2",
                       "--doc-cache=0"})) {
      std::fprintf(stderr, "failed to start shard %zu\n", i);
      return 1;
    }
    shards.push_back(std::move(shard));
  }
  // Two routers over the SAME shard processes: the rf=1 comparator uses
  // distinct document names, so the corpora never collide.
  std::unique_ptr<Router> rf2 = StartRouter(shards, 2);
  std::unique_ptr<Router> rf1 = StartRouter(shards, 1);
  if (rf2 == nullptr || rf1 == nullptr) return 1;

  bool placed = false;
  bool within = false;
  bool serves = false;
  bool restored = false;
  size_t victim = 0;
  if (FanoutPlacement(rf2.get(), docs, &placed) != 0) return 1;
  if (RecordOverhead(rf1.get(), rf2.get(), &within) != 0) return 1;
  if (KillFailover(&shards, rf2.get(), docs.size(), &victim, &serves) != 0) {
    return 1;
  }
  if (AntiEntropy(rf2.get(), docs.size(), victim, &restored) != 0) return 1;

  std::printf(
      "\nExpected shape: tapes land on exactly their owner sets, the\n"
      "client's RECORD ACK path is unchanged (replicas ride the async\n"
      "queue), a SIGKILLed primary costs zero re-records because the\n"
      "next ring owner already holds every tape, and one probe pass\n"
      "plus one sweep re-replicates the dead shard's keys from the\n"
      "surviving holders.\n");
  return placed && within && serves && restored ? 0 : 1;
}

}  // namespace
}  // namespace xsq::bench

int main(int argc, char** argv) { return xsq::bench::Main(argc, argv); }
