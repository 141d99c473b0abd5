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

}  // namespace xsq::bench

#endif  // XSQ_BENCH_UTIL_TIMING_H_
