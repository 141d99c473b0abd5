// Exposition: the METRICS text format, written in one place. Render()
// is its only writer; a process renders one document built from
// Registry::Snapshot() (the histograms) plus AddScalar() rows. Parse()
// is the inverse, and MergeFrom() folds a router's parsed shard
// documents keyed by (name, labels): buckets, sums and counts add, max
// takes the max, scalars fold by the caller's rule.
//
// Per histogram <name> (microseconds by convention, hence the _us
// suffix), Render() writes:
//
//   # HELP <name> <help>
//   # TYPE <name> histogram
//   <name>_bucket{le="<bound>"} <cumulative count>   (non-empty prefix)
//   <name>_bucket{le="+Inf"} <count>
//   <name>_sum <sum>
//   <name>_count <count>
//   <name>_p50 / _p95 / _p99 <interpolated quantile>
//   <name>_max <max>
//
// The quantile lines go beyond strict Prometheus exposition (which
// leaves quantiles to the scraper) so `xsqd` METRICS is self-contained
// for shell consumers. A scalar is "# TYPE <name> counter|gauge" then
// "<name> <value>".
//
// Round trip: Render(Parse(text)) == text, byte for byte, for any text
// Render wrote. Buckets are emitted cumulatively from bucket 0 through
// the highest non-empty one, each bound (0, 2^i - 1, +Inf) maps back to
// one bucket index, and the quantile lines are recomputed from the
// buckets rather than stored. Comment lines other than # HELP / # TYPE
// (e.g. exemplars appended after the document) are skipped by the
// parser and do not round-trip.
#ifndef XSQ_OBS_EXPOSITION_H_
#define XSQ_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/histogram.h"

namespace xsq::obs {

// The exposition type of a scalar series.
enum class ScalarKind { kCounter, kGauge };

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
// order for a Registry snapshot, then the order of Add calls),
// preserved across Merge so a stable shard set renders a stable merged
// document.
class Exposition {
 public:
  // Parses renderer output. Returns ParseError on a malformed data
  // line; unknown comment lines are skipped.
  static Result<Exposition> Parse(std::string_view text);

  // Appends `series` after the others, unmerged. Consecutive series of
  // one name render under one # HELP/# TYPE header.
  void Add(ExpositionSeries series);
  // Appends an unlabeled counter or gauge.
  void AddScalar(std::string_view name, ScalarKind kind, uint64_t value);

  // Folds `other` into this document. Series are keyed by
  // (name, labels): histograms merge bucket-wise (counts, sums and
  // buckets add, max takes the max); scalars fold by `rule(name)`, and
  // add when no rule is given. Series unseen here are appended in
  // `other`'s order.
  using ScalarRule = ScalarMerge (*)(std::string_view name);
  void MergeFrom(const Exposition& other, ScalarRule rule = nullptr);

  // Renders the document (headers shared by consecutive same-name
  // series, cumulative buckets, recomputed quantile lines).
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
