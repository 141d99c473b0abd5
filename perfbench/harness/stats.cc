#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// 0-based nearest rank: the smallest index whose cumulative share is
// at least q.
size_t NearestRank(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t rank = NearestRank(n, q);
  if (n - 1 - rank < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary SummarizeBlocks(std::vector<Timed> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Timed& a, const Timed& b) { return a.at_s < b.at_s; });
  std::vector<double> p50, p90, p99;
  for (size_t b = 0; b + kBlockOps <= samples.size(); b += kBlockOps) {
    std::vector<double> block;
    for (size_t i = b; i < b + kBlockOps; ++i) block.push_back(samples[i].value);
    p50.push_back(*Percentile(block, 0.50));
    p90.push_back(*Percentile(block, 0.90));
    p99.push_back(*Percentile(std::move(block), 0.99));
  }
  Summary s;
  s.count = samples.size();
  if (!p99.empty()) {
    s.p50 = Median(std::move(p50));
    s.p90 = Median(std::move(p90));
    s.p99 = Median(std::move(p99));
  }
  return s;
}

namespace {

// The slice `at_s` falls in, or slices.size() for none.
size_t SliceOf(const std::vector<Slice>& slices, double at_s) {
  auto it = std::upper_bound(
      slices.begin(), slices.end(), at_s,
      [](double t, const Slice& s) { return t < s.begin_s; });
  if (it == slices.begin()) return slices.size();
  const size_t i = static_cast<size_t>(it - slices.begin()) - 1;
  return at_s <= slices[i].end_s ? i : slices.size();
}

}  // namespace

std::vector<Timed> AtReferenceSpeed(std::vector<Timed> samples,
                                    const std::vector<Slice>& slices) {
  std::vector<Timed> out;
  for (const Timed& t : samples) {
    const size_t i = SliceOf(slices, t.at_s);
    if (i < slices.size()) out.push_back({t.at_s, t.value * slices[i].scale});
  }
  return out;
}

double SliceRate(const std::vector<Timed>& samples,
                 const std::vector<Slice>& slices) {
  std::vector<double> sums(slices.size(), 0.0);
  for (const Timed& t : samples) {
    const size_t i = SliceOf(slices, t.at_s);
    if (i < slices.size()) sums[i] += t.value;
  }
  std::vector<double> rates;
  for (size_t i = 0; i < slices.size(); ++i) {
    const double span = slices[i].end_s - slices[i].begin_s - slices[i].probe_s;
    if (span > 0) rates.push_back(sums[i] / span / slices[i].scale);
  }
  return Median(std::move(rates));
}

}  // namespace perfbench
