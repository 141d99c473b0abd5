#include "obs/registry.h"

#include <cinttypes>
#include <cstdio>

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

}  // namespace

Histogram* Registry::GetOrCreateHistogram(std::string_view name,
                                          std::string_view help,
                                          std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      return &entry->histogram;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name.assign(name);
  entry->help.assign(help);
  entry->labels.assign(labels);
  entries_.push_back(std::move(entry));
  return &entries_.back()->histogram;
}

const Histogram* Registry::FindHistogram(std::string_view name,
                                         std::string_view labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      return &entry->histogram;
    }
  }
  return nullptr;
}

std::string Registry::RenderText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  const std::string* family = nullptr;  // name whose header was emitted
  for (const std::unique_ptr<Entry>& entry : entries_) {
    Histogram::Snapshot snap = entry->histogram.snapshot();
    // One # HELP/# TYPE header per metric family: labeled series of one
    // name are registered consecutively and share the header.
    if (family == nullptr || *family != entry->name) {
      if (!entry->help.empty()) {
        out += "# HELP " + entry->name + " " + entry->help + "\n";
      }
      out += "# TYPE " + entry->name + " histogram\n";
      family = &entry->name;
    }
    // `name_sum{engine="nc"}` for labeled series, `name_sum` otherwise.
    const std::string suffix_labels =
        entry->labels.empty() ? "" : "{" + entry->labels + "}";
    // le joins any series labels inside one brace list.
    const std::string le_prefix =
        entry->labels.empty()
            ? entry->name + "_bucket{le=\""
            : entry->name + "_bucket{" + entry->labels + ",le=\"";

    size_t highest = 0;
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (snap.buckets[i] != 0) highest = i;
    }
    uint64_t cumulative = 0;
    for (size_t i = 0; i <= highest; ++i) {
      cumulative += snap.buckets[i];
      out += le_prefix;
      AppendUint(&out, Histogram::BucketUpperBound(i));
      out += "\"} ";
      AppendUint(&out, cumulative);
      out += '\n';
    }
    out += le_prefix + "+Inf\"} ";
    AppendUint(&out, snap.count);
    out += '\n';
    out += entry->name + "_sum" + suffix_labels + " ";
    AppendUint(&out, snap.sum);
    out += '\n';
    out += entry->name + "_count" + suffix_labels + " ";
    AppendUint(&out, snap.count);
    out += '\n';
    out += entry->name + "_p50" + suffix_labels + " ";
    AppendDouble(&out, snap.p50());
    out += '\n';
    out += entry->name + "_p95" + suffix_labels + " ";
    AppendDouble(&out, snap.p95());
    out += '\n';
    out += entry->name + "_p99" + suffix_labels + " ";
    AppendDouble(&out, snap.p99());
    out += '\n';
    out += entry->name + "_max" + suffix_labels + " ";
    AppendUint(&out, snap.max);
    out += '\n';
  }
  return out;
}

void Registry::AppendScalar(std::string* out, std::string_view name,
                            ScalarKind kind, uint64_t value) {
  *out += "# TYPE ";
  out->append(name);
  *out += kind == ScalarKind::kCounter ? " counter\n" : " gauge\n";
  out->append(name);
  *out += ' ';
  AppendUint(out, value);
  *out += '\n';
}

}  // namespace xsq::obs
