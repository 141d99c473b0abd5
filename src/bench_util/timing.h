// Wall-clock timing helpers shared by the bench binaries.
#ifndef XSQ_BENCH_UTIL_TIMING_H_
#define XSQ_BENCH_UTIL_TIMING_H_

#include <algorithm>
#include <chrono>
#include <vector>

namespace xsq::bench {

// Seconds elapsed on the steady clock since `start`.
inline double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The fastest of `reps` timed runs of `fn`, in seconds.
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    double t = Seconds(start);
    if (i == 0 || t < best) best = t;
  }
  return best;
}

// The median of `samples` (the upper of the two middle samples for an
// even count); 0 for no samples.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  auto middle = samples.begin() + static_cast<long>(samples.size() / 2);
  std::nth_element(samples.begin(), middle, samples.end());
  return *middle;
}

// Per-round seconds of two legs timed in alternating rounds.
struct PairedTiming {
  std::vector<double> a_seconds;
  std::vector<double> b_seconds;

  // The median over rounds of b's time over a's time in that round.
  double MedianRatio() const {
    std::vector<double> ratios;
    for (size_t i = 0; i < a_seconds.size(); ++i) {
      ratios.push_back(b_seconds[i] / a_seconds[i]);
    }
    return Median(std::move(ratios));
  }
};

// Times `a` and `b` over `rounds` rounds: even rounds run a then b, odd
// rounds b then a. The host's speed drifts over seconds, so a ratio of
// two legs timed in separate blocks measures the drift as well; paired
// rounds put both legs under the same conditions.
template <typename FnA, typename FnB>
PairedTiming TimePaired(int rounds, FnA&& a, FnB&& b) {
  PairedTiming timing;
  auto time = [](auto& fn) {
    auto start = std::chrono::steady_clock::now();
    fn();
    return Seconds(start);
  };
  for (int r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      timing.a_seconds.push_back(time(a));
      timing.b_seconds.push_back(time(b));
    } else {
      timing.b_seconds.push_back(time(b));
      timing.a_seconds.push_back(time(a));
    }
  }
  return timing;
}

}  // namespace xsq::bench

#endif  // XSQ_BENCH_UTIL_TIMING_H_
