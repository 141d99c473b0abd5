// In-memory spans for the traced run.
//
// The harness records a span around each call it makes into a layer:
// name, start, end, parent span and request id. Spans stay in memory
// and are written out once, when the run ends. A span's self time is
// its duration minus the part of that interval its children cover.
//
// One SpanRecorder per thread. Span ids are unique across recorders
// because each recorder owns an id range.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a layer name; string literals only
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

class SpanRecorder {
 public:
  // Span ids start above `id_base` * 2^32, so recorders built with
  // distinct bases never collide.
  explicit SpanRecorder(uint32_t id_base = 0)
      : next_id_((static_cast<uint64_t>(id_base) << 32) + 1) {}

  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, next_id_, parent, request, start_ns, end_ns});
    return next_id_++;
  }

  // Reserves an id for a span whose end is not known yet; Close fills
  // it in. Children may name the id as parent before it is closed.
  uint64_t Open(const char* name, uint64_t parent, uint64_t request,
                int64_t start_ns) {
    return Add(name, parent, request, start_ns, start_ns);
  }
  void Close(uint64_t id, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time summed per span name, nanoseconds.
  std::map<std::string, int64_t> SelfTimeByName() const;
  // Duration summed per span name, nanoseconds.
  std::map<std::string, int64_t> DurationByName() const;

  // One JSON object per line.
  std::string ToJsonLines() const;

 private:
  std::vector<Span> spans_;
  uint64_t next_id_;
};

// Self time of every span, in input order: duration minus the union of
// its children's intervals clipped to the span.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
