#include "trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Close(uint64_t id, int64_t end_ns) {
  // Ids are dense within a recorder, so the span sits at a known index.
  const uint64_t first = spans_.empty() ? 0 : spans_.front().id;
  if (id >= first && id - first < spans_.size()) {
    spans_[id - first].end_ns = end_ns;
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].push_back({s.start_ns, s.end_ns});
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, int64_t> SpanRecorder::SelfTimeByName() const {
  std::vector<int64_t> self = SelfTimes(spans_);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

std::map<std::string, int64_t> SpanRecorder::DurationByName() const {
  std::map<std::string, int64_t> out;
  for (const Span& s : spans_) out[s.name] += s.end_ns - s.start_ns;
  return out;
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  for (const Span& s : spans_) {
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + "}\n";
  }
  return out;
}

}  // namespace perfbench
