// The statistics buffer of paper Section 4.4: aggregation queries replace
// queue.flush() with stat.update(...), and stat emits its running value on
// every update so aggregations work over unbounded streams.
#ifndef XSQ_CORE_AGGREGATOR_H_
#define XSQ_CORE_AGGREGATOR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "common/strings.h"
#include "xpath/ast.h"

namespace xsq::core {

class Aggregator {
 public:
  explicit Aggregator(xpath::OutputKind kind) : kind_(kind) {}

  // Consumes one selected item. `element_text` is the concatenation of
  // the matched element's direct text (ignored by count()). Returns true
  // if the running value changed (an update should be emitted).
  bool Update(std::string_view element_text) {
    if (kind_ == xpath::OutputKind::kCount) {
      ++count_;
      return true;
    }
    std::optional<double> value = ParseNumber(element_text);
    if (!value.has_value()) return false;  // non-numeric elements skipped
    ++numeric_count_;
    sum_ += *value;
    min_ = std::min(min_, *value);
    max_ = std::max(max_, *value);
    return true;
  }

  // Folds in a partial aggregate computed elsewhere (the DOM evaluator
  // over one candidate subtree): `count` selected elements, of which
  // `numeric_count` had numeric text summing to `sum`, with extremes
  // `min` and `max` (read only when numeric_count > 0). Returns true if
  // the running value changed, as Update does.
  bool Absorb(uint64_t count, uint64_t numeric_count, double sum,
              double min, double max) {
    count_ += count;
    if (numeric_count > 0) {
      numeric_count_ += numeric_count;
      sum_ += sum;
      min_ = std::min(min_, min);
      max_ = std::max(max_, max);
    }
    return kind_ == xpath::OutputKind::kCount ? count > 0 : numeric_count > 0;
  }

  // The running value, or nullopt when it is not yet defined (avg/min/max
  // before the first numeric element).
  std::optional<double> Current() const {
    switch (kind_) {
      case xpath::OutputKind::kCount:
        return static_cast<double>(count_);
      case xpath::OutputKind::kSum:
        return sum_;
      case xpath::OutputKind::kAvg:
        if (numeric_count_ == 0) return std::nullopt;
        return sum_ / static_cast<double>(numeric_count_);
      case xpath::OutputKind::kMin:
        if (numeric_count_ == 0) return std::nullopt;
        return min_;
      case xpath::OutputKind::kMax:
        if (numeric_count_ == 0) return std::nullopt;
        return max_;
      default:
        return std::nullopt;
    }
  }

  // Final value at end of document. count() and sum() of an empty match
  // set are 0; avg/min/max of no numeric elements are absent.
  std::optional<double> Final() const {
    if (kind_ == xpath::OutputKind::kCount) {
      return static_cast<double>(count_);
    }
    if (kind_ == xpath::OutputKind::kSum) return sum_;
    return Current();
  }

 private:
  xpath::OutputKind kind_;
  uint64_t count_ = 0;
  uint64_t numeric_count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace xsq::core

#endif  // XSQ_CORE_AGGREGATOR_H_
