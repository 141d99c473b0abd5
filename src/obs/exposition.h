// Exposition: parse the Prometheus text format Registry renders, merge
// parsed snapshots across processes, and re-render byte-identically.
//
// This is the inverse of Registry::RenderText / Registry::AppendScalar,
// built for the cluster tier: a router scrapes each shard's METRICS
// (or GET /metrics), parses the text back into histogram snapshots and
// scalar values, merges them keyed by (name, labels) — buckets, sums
// and counts add; max takes the max; scalars fold by the caller's
// rule — and renders one merged exposition for the whole cluster.
//
// Round-trip guarantee: for text produced by this repo's renderers,
// Render(Parse(text)) == text, byte for byte. That holds because the
// renderer is deterministic from the parsed state:
//   - histogram buckets are emitted cumulatively from bucket 0 through
//     the highest non-zero bucket, and each rendered upper bound
//     (0, 2^i - 1, +Inf) maps back to exactly one bucket index;
//   - the _p50/_p95/_p99 convenience lines are NOT stored at parse
//     time — they are recomputed from the buckets at render, exactly
//     as Registry::RenderText computes them (%.1f of the same
//     deterministic interpolation);
//   - scalars render as the same "# TYPE" + "name value" pair.
// Comment lines other than # HELP / # TYPE (e.g. exemplars from a
// foreign exposition) are skipped by the parser and therefore do NOT
// round-trip; everything this repo emits does.
#ifndef XSQ_OBS_EXPOSITION_H_
#define XSQ_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/histogram.h"

namespace xsq::obs {

// How a scalar series folds across processes: summed (counters, and
// gauges whose cluster-wide value is the total over processes) or
// maxed (high-water marks and build flags, where a sum means nothing).
enum class ScalarMerge { kSum, kMax };

// One parsed series: a histogram snapshot or a scalar value, plus the
// family metadata needed to re-render its header.
struct ExpositionSeries {
  std::string name;
  std::string help;    // family help; empty renders no # HELP line
  std::string type;    // "histogram", "counter" or "gauge"
  std::string labels;  // without braces; empty = unlabeled series
  bool is_histogram = false;
  Histogram::Snapshot hist;  // when is_histogram
  uint64_t value = 0;        // when !is_histogram
};

// An ordered exposition document. Order is first-seen (registration
// order for Registry output), preserved across Merge so a stable
// shard set renders a stable merged document.
class Exposition {
 public:
  // Parses renderer output. Returns ParseError on a malformed data
  // line; unknown comment lines are skipped.
  static Result<Exposition> Parse(std::string_view text);

  // Folds `other` into this document. Series are keyed by
  // (name, labels): histograms merge bucket-wise (counts, sums and
  // buckets add, max takes the max); scalars fold by `rule(name)`, and
  // add when no rule is given. Series unseen here are appended in
  // `other`'s order.
  using ScalarRule = ScalarMerge (*)(std::string_view name);
  void MergeFrom(const Exposition& other, ScalarRule rule = nullptr);

  // Renders the document in Registry's exact format (headers shared by
  // consecutive same-name series, cumulative buckets, recomputed
  // quantile lines).
  std::string Render() const;

  const std::vector<ExpositionSeries>& series() const { return series_; }

  // The series registered under (name, labels), or null.
  const ExpositionSeries* Find(std::string_view name,
                               std::string_view labels = "") const;

 private:
  std::vector<ExpositionSeries> series_;
};

}  // namespace xsq::obs

#endif  // XSQ_OBS_EXPOSITION_H_
