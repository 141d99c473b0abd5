// Failpoints: named fault-injection sites compiled into the library for
// resilience testing, in the spirit of RocksDB's SyncPoint / FreeBSD's
// fail(9).
//
// A site is one macro invocation naming the failure it simulates:
//
//   XSQ_FAILPOINT("tape.load.short_read",
//                 return Status::DataCorruption("injected short read"));
//
// Every build compiles every site. A site is inert until a test or the
// environment arms one: while nothing is armed it costs one relaxed
// atomic load, with no lock and no allocation.
//
//   FailPoints::Instance().Arm("tape.load.short_read");        // always
//   FailPoints::Instance().ArmProbability("x", 0.25, seed);    // p = 0.25
//   FailPoints::Instance().ArmAfter("x", 3);   // pass 3 times, then fire
//
// or  XSQ_FAILPOINTS="tape.load.short_read=1,x=p0.25,y=after3" xsqd ...
//
// The fault-injection test runs in every tree tools/check.sh builds
// (plain, TSan, ASan, UBSan), proving every armed site surfaces as a
// clean per-session Status rather than a crash, deadlock, or leak.
// kFailPointCatalog enumerates every site in the library so that test
// can arm them all without grepping the sources.
#ifndef XSQ_COMMON_FAILPOINTS_H_
#define XSQ_COMMON_FAILPOINTS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace xsq {

// Every failpoint site in the library, one entry per XSQ_FAILPOINT
// call. Keep in sync when adding sites; the fault-injection test walks
// this list and arms each name.
inline constexpr const char* kFailPointCatalog[] = {
    "xml.parse.io_error",         // SaxParser::Feed - upstream read failed
    "core.engine.alloc_fail",     // StreamingQuery::Open - engine allocation
    "service.worker.alloc_fail",  // QueryService::OpenSession - session alloc
    "service.session.push_fault", // Session::Push - worker-loop evaluation
    "service.record.alloc_fail",  // QueryService::RecordDocument - tape alloc
    "tape.load.short_read",       // Tape::Load - file truncated mid-read
    "tape.save.short_write",      // Tape::Save - disk full / write error
    "net.accept.shed",            // net::Server - force accept-side shedding
    "net.read.fail",              // net::Server - socket read error path
    "net.write.fail",             // net::Server - socket write error path
    "pubsub.fanout.fail",         // QueryService fan-out - sink delivery drop
    "cluster.repl.fail",          // cluster::Replicator - replication send site
};

class FailPoints {
 public:
  // The process-wide registry. First call parses the XSQ_FAILPOINTS
  // environment variable.
  static FailPoints& Instance();

  // Arm `name` to fire on every hit.
  void Arm(std::string_view name);
  // Arm `name` to fire each hit independently with probability `p`,
  // using a deterministic per-site RNG seeded with `seed`.
  void ArmProbability(std::string_view name, double p, uint64_t seed = 1);
  // Arm `name` to pass `n` hits and fire on every hit after that.
  void ArmAfter(std::string_view name, uint64_t n);

  void Disarm(std::string_view name);
  void DisarmAll();

  // The site call: true if `name` is armed and triggers on this hit.
  // With nothing armed anywhere it returns after one relaxed load.
  static bool Fire(std::string_view name) {
    return any_armed_.load(std::memory_order_relaxed) && FireArmed(name);
  }

  // Hits observed at `name` since it was last armed (armed sites only).
  uint64_t hits(std::string_view name) const;

  // Parses an "name=spec,name=spec" string; spec is "1"/"always",
  // "p<float>", or "after<N>". Unknown specs fail without arming.
  Status ArmFromEnvSpec(std::string_view env);

  std::vector<std::string> ArmedNames() const;

 private:
  enum class Mode : uint8_t { kAlways, kProbability, kAfterN };
  struct State {
    Mode mode = Mode::kAlways;
    double probability = 1.0;
    uint64_t after = 0;
    uint64_t hits = 0;
    uint64_t rng = 1;  // splitmix64 state for kProbability
  };

  FailPoints() = default;

  // Fire's slow path, out of line and cold so a site adds one load and
  // one branch to its function.
  [[gnu::cold, gnu::noinline]] static bool FireArmed(std::string_view name);
  // Publishes armed_'s emptiness to Fire's fast path; mu_ held.
  void NoteArmedLocked() {
    any_armed_.store(!armed_.empty(), std::memory_order_relaxed);
  }

  // Set while armed_ is non-empty. Static, so the unarmed fast path
  // reads it without touching Instance().
  static inline std::atomic<bool> any_armed_{false};

  mutable std::mutex mu_;
  std::unordered_map<std::string, State> armed_;
};

// Expands a fault-injection site. `...` is the statement to execute
// when the site fires (typically `return Status::...(...)`).
#define XSQ_FAILPOINT(name, ...)                      \
  do {                                                \
    if (::xsq::FailPoints::Fire(name)) [[unlikely]] { \
      __VA_ARGS__;                                    \
    }                                                 \
  } while (false)

}  // namespace xsq

#endif  // XSQ_COMMON_FAILPOINTS_H_
