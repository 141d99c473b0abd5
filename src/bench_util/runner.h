// Experiment harness: runs any of the systems under study on a
// (query, document) pair and measures the phases the paper measures
// (Figure 18: query compile, preprocessing, querying), plus accounted
// memory (Figures 19/20) and throughput relative to the bare SAX
// PureParser (Section 6.2).
#ifndef XSQ_BENCH_UTIL_RUNNER_H_
#define XSQ_BENCH_UTIL_RUNNER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/streaming_engine.h"

namespace xsq::bench {

// The systems of the paper's study (Figure 14) mapped to the
// architecture-equivalent engines of this repository.
enum class System {
  kPureParser,  // SAX parse, no query work: the throughput upper bound
  kXsqF,        // XSQ-F: closures + predicates + aggregation
  kXsqNc,       // XSQ-NC: deterministic, no closures
  kLazyDfa,     // XMLTK stand-in: lazy DFA, no predicates
  kDom,         // Saxon/Galax stand-in: DOM materialization + evaluation
  kNaive,       // Joost/STX-like strawman: buffers candidate subtrees
  kTextIndex,   // XQEngine stand-in: full-text index, big preprocessing
};

constexpr System kAllSystems[] = {
    System::kPureParser, System::kXsqF, System::kXsqNc, System::kLazyDfa,
    System::kDom,        System::kNaive, System::kTextIndex};

const char* SystemName(System system);

// The factory of the streaming engine behind `system`; null for the
// systems that do not stream a query (PureParser, DOM, TextIndex).
core::EngineFactory StreamingEngineFactory(System system);

struct RunMeasurement {
  bool supported = true;
  std::string unsupported_reason;

  double compile_seconds = 0.0;     // query parse + automaton build
  double preprocess_seconds = 0.0;  // DOM build (non-streaming systems)
  double query_seconds = 0.0;       // streaming / evaluation phase
  double total_seconds() const {
    return compile_seconds + preprocess_seconds + query_seconds;
  }

  size_t input_bytes = 0;
  size_t item_count = 0;
  size_t peak_memory_bytes = 0;  // accounted buffered/materialized bytes

  double throughput_mb_per_s() const {
    double t = preprocess_seconds + query_seconds;
    if (t <= 0.0) return 0.0;
    return static_cast<double>(input_bytes) / (1024.0 * 1024.0) / t;
  }
};

// Runs `system` on the document with the given query. Systems that
// cannot handle the query return supported=false with the reason, like
// the paper's "the system cannot handle the query" footnotes.
Result<RunMeasurement> RunSystem(System system, std::string_view query_text,
                                 std::string_view xml_text);

// Throughput normalized to the PureParser on the same input
// (the paper's "relative throughput").
double RelativeThroughput(const RunMeasurement& run,
                          const RunMeasurement& pure_parser);

}  // namespace xsq::bench

#endif  // XSQ_BENCH_UTIL_RUNNER_H_
