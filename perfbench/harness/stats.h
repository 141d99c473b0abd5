// Sample summaries for the benchmark's timings.
//
// The percentile rule: a percentile is reported only when at least
// kMinTail samples lie strictly beyond it, so a p99 needs 1000 samples
// and a p50 needs 21. An unsupported percentile is absent, never
// replaced by a lower one.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTail = 10;

// Nearest-rank percentile of `samples` (any order) at quantile `q` in
// (0, 1), or nullopt when fewer than kMinTail samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double q);

// Plain median (average of the middle two for even counts); 0 for none.
double Median(std::vector<double> samples);

struct Summary {
  size_t count = 0;
  std::optional<double> p50;
  std::optional<double> p90;
  std::optional<double> p99;
};

// --- robust to the host ---------------------------------------------------
//
// The reference host (a shared 4-vCPU VM) slows down in bursts that last
// seconds, and in spells that last minutes (see host_probe.h). Load
// therefore runs in slices of kSliceS seconds with host probe ticks
// beside it, and run-level figures come from pieces of the run at the
// reference host's speed: a percentile is the median of that
// percentile over consecutive blocks of kBlockOps operations (in
// completion order; each block's p99 has exactly ten samples beyond
// it), and a rate is the median over slices. A burst that covers less
// than half the run moves neither; a change that slows every operation
// moves both.

inline constexpr size_t kBlockOps = 1000;
inline constexpr double kSliceS = 2.0;

// One completed operation: when it completed (seconds since the start
// of the measured window) and its value (latency, or bytes for rates).
struct Timed {
  double at_s = 0.0;
  double value = 0.0;
};

// A slice of load: [begin_s, end_s] in seconds since the start of the
// measured window, the host probe's scale over the ticks run inside
// it, and the seconds those ticks took (not load time).
struct Slice {
  double begin_s = 0.0;
  double end_s = 0.0;
  double scale = 1.0;
  double probe_s = 0.0;
};

// p50, p90 and p99, each the median over blocks (all absent below
// kBlockOps samples). `count` is the sample count.
Summary SummarizeBlocks(std::vector<Timed> samples);

// `samples` with each value multiplied by the scale of the slice it
// completed in: times at the reference host's speed.
std::vector<Timed> AtReferenceSpeed(std::vector<Timed> samples,
                                    const std::vector<Slice>& slices);

// Median over slices of the slice's summed value per second of load
// time (its span less its probe time), divided by its scale: a rate at
// the reference host's speed.
double SliceRate(const std::vector<Timed>& samples,
                 const std::vector<Slice>& slices);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
