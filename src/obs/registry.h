// Registry: named histograms, handed out as an exposition snapshot.
//
// The registry owns its histograms; GetOrCreateHistogram returns a
// stable pointer that stays valid for the registry's lifetime, so hot
// paths resolve a metric once at startup and then record lock-free.
// The registry lock covers only registration and snapshot iteration,
// never Record().
//
// Snapshot() copies every histogram into an obs::Exposition, whose
// Render() is the one writer of the METRICS text (see exposition.h
// for the histogram block it writes). Callers add their scalar series
// to the same document before rendering it.
#ifndef XSQ_OBS_REGISTRY_H_
#define XSQ_OBS_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/exposition.h"
#include "obs/histogram.h"

namespace xsq::obs {

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

  // Every registered histogram as an exposition series, in
  // registration order. Thread-safe; concurrent Record()s may or may
  // not be included.
  Exposition Snapshot() const;

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
