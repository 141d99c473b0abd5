// Registry: named histograms plus Prometheus-style text exposition.
//
// The registry owns its histograms; GetOrCreateHistogram returns a
// stable pointer that stays valid for the registry's lifetime, so hot
// paths resolve a metric once at startup and then record lock-free.
// The registry lock covers only registration and render iteration,
// never Record().
//
// RenderText() emits, per histogram <name> (recorded in microseconds by
// convention, reflected in the _us suffix the service layer uses):
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
// The quantile lines are a convenience beyond strict Prometheus
// histogram exposition (which leaves quantiles to the scraper); they
// make `xsqd` METRICS self-contained for shell consumers.
#ifndef XSQ_OBS_REGISTRY_H_
#define XSQ_OBS_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace xsq::obs {

// The exposition type of a scalar series.
enum class ScalarKind { kCounter, kGauge };

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Returns the histogram registered under (`name`, `labels`), creating
  // it on first use. `help` is kept from the first registration of the
  // name. `labels` is a Prometheus label list without braces (e.g.
  // `engine="nc"`); entries sharing a name but differing in labels are
  // distinct series of one metric family and render under one # TYPE
  // header when registered consecutively. Thread-safe; the returned
  // pointer is stable until the registry is destroyed.
  Histogram* GetOrCreateHistogram(std::string_view name,
                                  std::string_view help = "",
                                  std::string_view labels = "");

  // The histogram registered under (`name`, `labels`), or null.
  // Thread-safe.
  const Histogram* FindHistogram(std::string_view name,
                                 std::string_view labels = "") const;

  // Prometheus-style exposition of every registered histogram, in
  // registration order. Thread-safe; concurrent Record()s may or may
  // not be included.
  std::string RenderText() const;

  // Renders one scalar metric line pair ("# TYPE" + value) in the same
  // exposition format; used by callers that mix plain counters/gauges
  // into the same METRICS payload.
  static void AppendScalar(std::string* out, std::string_view name,
                           ScalarKind kind, uint64_t value);

 private:
  struct Entry {
    std::string name;
    std::string help;
    std::string labels;  // without braces; empty = unlabeled series
    Histogram histogram;
  };

  mutable std::mutex mu_;  // registration and iteration only
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace xsq::obs

#endif  // XSQ_OBS_REGISTRY_H_
