#include "obs/exposition.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "common/strings.h"

namespace xsq::obs {

namespace {

void AppendUint(std::string* out, uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  *out += buf;
}

void AppendDouble(std::string* out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  *out += buf;
}

// A rendered bucket upper bound back to its bucket index. The bounds
// the renderer emits are exactly 0, 2^i - 1 (1 <= i <= 63) and the
// all-ones 2^64 - 1 for bucket 64, so the mapping is invertible.
bool BucketIndexFromBound(std::string_view bound, size_t* index) {
  if (bound == "+Inf") return false;  // handled by the caller
  std::optional<uint64_t> value = ParseUint64(bound);
  if (!value.has_value()) return false;
  size_t i = *value == 0 ? 0 : static_cast<size_t>(std::bit_width(*value));
  if (i >= Histogram::kBucketCount) return false;
  if (Histogram::BucketUpperBound(i) != *value) return false;
  *index = i;
  return true;
}

// Splits "name_suffix{labels} value" / "name_suffix value" given the
// family name. Returns the suffix ("_sum", "_bucket", ...), labels
// (brace contents) and the value text.
struct DataLine {
  std::string_view suffix;
  std::string_view labels;  // brace contents, verbatim
  std::string_view value;
};

bool SplitDataLine(std::string_view line, std::string_view family,
                   DataLine* out) {
  if (line.substr(0, family.size()) != family) return false;
  std::string_view rest = line.substr(family.size());
  size_t brace = rest.find('{');
  size_t space = rest.find(' ');
  if (space == std::string_view::npos) return false;
  if (brace != std::string_view::npos && brace < space) {
    size_t close = rest.find('}', brace);
    if (close == std::string_view::npos || close + 1 >= rest.size() ||
        rest[close + 1] != ' ') {
      return false;
    }
    out->suffix = rest.substr(0, brace);
    out->labels = rest.substr(brace + 1, close - brace - 1);
    out->value = rest.substr(close + 2);
  } else {
    out->suffix = rest.substr(0, space);
    out->labels = std::string_view();
    out->value = rest.substr(space + 1);
  }
  return true;
}

// Splits a brace list into the series labels and the le="..." bound.
// The renderer puts le last: `engine="nc",le="255"` or `le="255"`.
bool SplitBucketLabels(std::string_view brace_contents,
                       std::string_view* series_labels,
                       std::string_view* bound) {
  constexpr std::string_view kLe = "le=\"";
  size_t le = brace_contents.rfind(kLe);
  if (le == std::string_view::npos) return false;
  if (le == 0) {
    *series_labels = std::string_view();
  } else {
    if (brace_contents[le - 1] != ',') return false;
    *series_labels = brace_contents.substr(0, le - 1);
  }
  std::string_view tail = brace_contents.substr(le + kLe.size());
  if (tail.empty() || tail.back() != '"') return false;
  *bound = tail.substr(0, tail.size() - 1);
  return true;
}

void RenderHistogram(std::string* out, const ExpositionSeries& series) {
  const Histogram::Snapshot& snap = series.hist;
  const std::string suffix_labels =
      series.labels.empty() ? "" : "{" + series.labels + "}";
  const std::string le_prefix =
      series.labels.empty()
          ? series.name + "_bucket{le=\""
          : series.name + "_bucket{" + series.labels + ",le=\"";
  size_t highest = 0;
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (snap.buckets[i] != 0) highest = i;
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= highest; ++i) {
    cumulative += snap.buckets[i];
    *out += le_prefix;
    AppendUint(out, Histogram::BucketUpperBound(i));
    *out += "\"} ";
    AppendUint(out, cumulative);
    *out += '\n';
  }
  *out += le_prefix + "+Inf\"} ";
  AppendUint(out, snap.count);
  *out += '\n';
  *out += series.name + "_sum" + suffix_labels + " ";
  AppendUint(out, snap.sum);
  *out += '\n';
  *out += series.name + "_count" + suffix_labels + " ";
  AppendUint(out, snap.count);
  *out += '\n';
  *out += series.name + "_p50" + suffix_labels + " ";
  AppendDouble(out, snap.p50());
  *out += '\n';
  *out += series.name + "_p95" + suffix_labels + " ";
  AppendDouble(out, snap.p95());
  *out += '\n';
  *out += series.name + "_p99" + suffix_labels + " ";
  AppendDouble(out, snap.p99());
  *out += '\n';
  *out += series.name + "_max" + suffix_labels + " ";
  AppendUint(out, snap.max);
  *out += '\n';
}

}  // namespace

Result<Exposition> Exposition::Parse(std::string_view text) {
  Exposition doc;
  // The family opened by the last # TYPE line. Series lookup during
  // parse is scoped to this family block (first index in series_), so
  // a re-registered name later in the document starts fresh series
  // exactly as the renderer would emit a fresh header.
  std::string family_name;
  std::string family_type;
  std::string pending_help;   // help seen for family_name
  size_t family_begin = 0;    // first series_ index of this family

  for (std::string_view line : Split(text, '\n')) {
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP <name> <text>" / "# TYPE <name> <type>"; any other
      // comment (foreign exemplars etc.) is skipped.
      if (line.rfind("# HELP ", 0) == 0) {
        std::string_view rest = line.substr(7);
        size_t space = rest.find(' ');
        if (space == std::string_view::npos) continue;
        family_name.assign(rest.substr(0, space));
        pending_help.assign(rest.substr(space + 1));
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          return Status::ParseError("malformed # TYPE line: " +
                                    std::string(line));
        }
        std::string_view name = rest.substr(0, space);
        if (name != family_name) pending_help.clear();
        family_name.assign(name);
        family_type.assign(rest.substr(space + 1));
        family_begin = doc.series_.size();
        continue;
      }
      continue;
    }

    if (family_name.empty()) {
      return Status::ParseError("data line before any # TYPE: " +
                                std::string(line));
    }
    DataLine data;
    if (!SplitDataLine(line, family_name, &data)) {
      return Status::ParseError("line does not belong to family '" +
                                family_name + "': " + std::string(line));
    }

    if (family_type != "histogram") {
      // Scalar: "name value", no suffix, no labels.
      if (!data.suffix.empty() || !data.labels.empty()) {
        return Status::ParseError("malformed scalar line: " +
                                  std::string(line));
      }
      ExpositionSeries series;
      series.name = family_name;
      series.help = pending_help;
      series.type = family_type;
      series.is_histogram = false;
      std::optional<uint64_t> value = ParseUint64(data.value);
      if (!value.has_value()) {
        return Status::ParseError("bad scalar value: " + std::string(line));
      }
      series.value = *value;
      doc.series_.push_back(std::move(series));
      continue;
    }

    // Histogram family: route the line to its series by labels.
    std::string_view series_labels = data.labels;
    std::string_view bound;
    if (data.suffix == "_bucket") {
      if (!SplitBucketLabels(data.labels, &series_labels, &bound)) {
        return Status::ParseError("malformed bucket labels: " +
                                  std::string(line));
      }
    }
    ExpositionSeries* series = nullptr;
    for (size_t i = family_begin; i < doc.series_.size(); ++i) {
      if (doc.series_[i].labels == series_labels) {
        series = &doc.series_[i];
        break;
      }
    }
    if (series == nullptr) {
      ExpositionSeries fresh;
      fresh.name = family_name;
      fresh.help = pending_help;
      fresh.type = family_type;
      fresh.labels.assign(series_labels);
      fresh.is_histogram = true;
      doc.series_.push_back(std::move(fresh));
      series = &doc.series_.back();
    }

    if (data.suffix == "_p50" || data.suffix == "_p95" ||
        data.suffix == "_p99") {
      continue;  // recomputed from the buckets at render
    }
    std::optional<uint64_t> parsed = ParseUint64(data.value);
    if (!parsed.has_value()) {
      return Status::ParseError("bad value: " + std::string(line));
    }
    uint64_t value = *parsed;
    if (data.suffix == "_bucket") {
      if (bound == "+Inf") {
        // Cumulative total; _count carries the same number. Nothing to
        // store — the buckets themselves reconstruct it.
        continue;
      }
      size_t index = 0;
      if (!BucketIndexFromBound(bound, &index)) {
        return Status::ParseError("unrecognized bucket bound: " +
                                  std::string(line));
      }
      // De-cumulate: this bound's count minus everything below it.
      uint64_t below = 0;
      for (size_t i = 0; i < index; ++i) below += series->hist.buckets[i];
      if (value < below) {
        return Status::ParseError("non-monotonic bucket: " +
                                  std::string(line));
      }
      series->hist.buckets[index] = value - below;
    } else if (data.suffix == "_sum") {
      series->hist.sum = value;
    } else if (data.suffix == "_count") {
      series->hist.count = value;
    } else if (data.suffix == "_max") {
      series->hist.max = value;
    } else {
      return Status::ParseError("unknown histogram suffix: " +
                                std::string(line));
    }
  }
  return doc;
}

void Exposition::Add(ExpositionSeries series) {
  series_.push_back(std::move(series));
}

void Exposition::AddScalar(std::string_view name, ScalarKind kind,
                           uint64_t value) {
  ExpositionSeries series;
  series.name.assign(name);
  series.type = kind == ScalarKind::kCounter ? "counter" : "gauge";
  series.value = value;
  series_.push_back(std::move(series));
}

void Exposition::MergeFrom(const Exposition& other, ScalarRule rule) {
  for (const ExpositionSeries& theirs : other.series_) {
    ExpositionSeries* mine = nullptr;
    for (ExpositionSeries& candidate : series_) {
      if (candidate.name == theirs.name &&
          candidate.labels == theirs.labels) {
        mine = &candidate;
        break;
      }
    }
    if (mine == nullptr) {
      series_.push_back(theirs);
      continue;
    }
    if (mine->is_histogram && theirs.is_histogram) {
      mine->hist.Merge(theirs.hist);
    } else if (rule != nullptr && rule(mine->name) == ScalarMerge::kMax) {
      mine->value = std::max(mine->value, theirs.value);
    } else {
      mine->value += theirs.value;
    }
    if (mine->help.empty()) mine->help = theirs.help;
  }
}

std::string Exposition::Render() const {
  std::string out;
  const std::string* family = nullptr;
  for (const ExpositionSeries& series : series_) {
    if (family == nullptr || *family != series.name) {
      if (!series.help.empty()) {
        out += "# HELP " + series.name + " " + series.help + "\n";
      }
      out += "# TYPE " + series.name + " " + series.type + "\n";
      family = &series.name;
    }
    if (series.is_histogram) {
      RenderHistogram(&out, series);
    } else {
      out += series.name + " ";
      AppendUint(&out, series.value);
      out += '\n';
    }
  }
  return out;
}

const ExpositionSeries* Exposition::Find(std::string_view name,
                                         std::string_view labels) const {
  for (const ExpositionSeries& series : series_) {
    if (series.name == name && series.labels == labels) return &series;
  }
  return nullptr;
}

}  // namespace xsq::obs
