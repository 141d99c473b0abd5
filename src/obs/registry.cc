#include "obs/registry.h"

namespace xsq::obs {

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

Exposition Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Exposition doc;
  for (const std::unique_ptr<Entry>& entry : entries_) {
    ExpositionSeries series;
    series.name = entry->name;
    series.help = entry->help;
    series.type = "histogram";
    series.labels = entry->labels;
    series.is_histogram = true;
    series.hist = entry->histogram.snapshot();
    doc.Add(std::move(series));
  }
  return doc;
}

}  // namespace xsq::obs
