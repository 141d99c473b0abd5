// The host's speed, from a fixed piece of work timed in short ticks
// between the load's operations.
//
// The reference host is a shared virtual machine whose speed drifts by
// up to 2x over minutes, mostly with no steal time showing: other
// guests share its cores and caches. Ten runs of one workload then
// straddle fast and slow spells, and a wall-clock figure says more
// about the spell than about the program. So the harness runs probe
// ticks between operations (stream) or in short pauses of the load
// (cluster_read), and reports each slice of the run at the reference
// host's speed: times multiplied by the slice's scale, rates divided
// by it.
//
// The probe is the harness's own code, built from perfbench/ alone and
// the same for every seed: a tokenizer over a fixed 1 MiB pseudo-XML
// text (memchr scans, name hashing into a table, per-byte branches
// over text, short string copies), close in kind to the parse and
// engine work it stands beside. A change to the xsq sources cannot
// move it, so it cannot cancel a gain or a regression: a program 10%
// faster reads 10% faster at any scale.
#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace perfbench {

// The probe's speed on the reference host in a quiet spell, MB/s:
// scale 1.0. Only a constant factor on every reported figure.
inline constexpr double kReferenceProbeMbS = 250.0;

// How much more the load slows than the probe when the host slows: on
// the reference host, a spell that cut the probe's speed by a factor x
// cut both workloads' by about x^1.5. Fitted on 52 runs of 20 s across
// spells (per-set IQR/median of ops_s with 1.0: 0.04-0.12; with 1.5:
// 0.04-0.06; as measured: 0.12-0.27).
inline constexpr double kHostElasticity = 1.5;

class HostProbe {
 public:
  HostProbe();

  // Tokenizes the next `bytes` of the text (wrapping around) on
  // `threads` threads at once, thread k pinned to CPU k, and adds the
  // bytes and the threads' busy time to the counters.
  void Tick(size_t bytes, int threads = 1);

  // The ticks since the last call: the factor that brings a time
  // measured beside them to the reference host's speed,
  // (speed / kReferenceProbeMbS)^kHostElasticity (below 1.0 on a slow
  // host; 1.0 when there were no ticks), and their wall time.
  struct Taken {
    double scale = 1.0;
    double wall_s = 0.0;
  };
  Taken Take();

 private:
  // Tokenizes [offset, offset + bytes) of the text, wrapping around;
  // returns the busy nanoseconds.
  int64_t Run(size_t offset, size_t bytes);

  std::string text_;
  size_t cursor_ = 0;
  double bytes_ = 0.0;
  double busy_ns_ = 0.0;
  double wall_ns_ = 0.0;
  std::atomic<uint64_t> sink_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
