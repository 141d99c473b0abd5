#include "bench_util/runner.h"

#include <chrono>

#include "core/engine.h"
#include "core/engine_nc.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "dom/builder.h"
#include "dom/evaluator.h"
#include "lazydfa/lazy_dfa_engine.h"
#include "naive/naive_engine.h"
#include "textindex/text_index_engine.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace xsq::bench {

namespace {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class NullHandler : public xml::SaxHandler {
 public:
  void OnBegin(std::string_view, const std::vector<xml::Attribute>&,
               int) override {}
  void OnEnd(std::string_view, int) override {}
  void OnText(std::string_view, std::string_view, int) override {}
};

RunMeasurement Unsupported(std::string reason, size_t input_bytes) {
  RunMeasurement m;
  m.supported = false;
  m.unsupported_reason = std::move(reason);
  m.input_bytes = input_bytes;
  return m;
}

}  // namespace

const char* SystemName(System system) {
  switch (system) {
    case System::kPureParser:
      return "PureParser";
    case System::kXsqF:
      return "XSQ-F";
    case System::kXsqNc:
      return "XSQ-NC";
    case System::kLazyDfa:
      return "LazyDFA(XMLTK)";
    case System::kDom:
      return "DOM(Saxon)";
    case System::kNaive:
      return "Subtree(Joost)";
    case System::kTextIndex:
      return "TextIndex(XQEngine)";
  }
  return "?";
}

core::EngineFactory StreamingEngineFactory(System system) {
  switch (system) {
    case System::kXsqF:
      return &core::CreateEngine<core::XsqEngine>;
    case System::kXsqNc:
      return &core::CreateEngine<core::XsqNcEngine>;
    case System::kLazyDfa:
      return &core::CreateEngine<lazydfa::LazyDfaEngine>;
    case System::kNaive:
      return &core::CreateEngine<naive::NaiveEngine>;
    case System::kPureParser:
    case System::kDom:
    case System::kTextIndex:
      break;
  }
  return nullptr;
}

Result<RunMeasurement> RunSystem(System system, std::string_view query_text,
                                 std::string_view xml_text) {
  RunMeasurement m;
  m.input_bytes = xml_text.size();

  if (system == System::kPureParser) {
    NullHandler handler;
    xml::SaxParser parser(&handler);
    WallTimer timer;
    XSQ_RETURN_IF_ERROR(parser.Parse(xml_text));
    m.query_seconds = timer.Seconds();
    return m;
  }

  WallTimer compile_timer;
  Result<xpath::Query> query = xpath::ParseQuery(query_text);
  XSQ_RETURN_IF_ERROR(query.status());

  if (core::EngineFactory factory = StreamingEngineFactory(system)) {
    core::CountingSink sink;
    auto engine = factory(*query, &sink);
    if (!engine.ok()) {
      return Unsupported(engine.status().message(), xml_text.size());
    }
    m.compile_seconds = compile_timer.Seconds();
    xml::SaxParser parser(engine->get());
    WallTimer timer;
    XSQ_RETURN_IF_ERROR(parser.Parse(xml_text));
    m.query_seconds = timer.Seconds();
    XSQ_RETURN_IF_ERROR((*engine)->status());
    m.item_count = sink.item_count + sink.update_count;
    m.peak_memory_bytes = (*engine)->memory().peak_bytes();
    return m;
  }

  switch (system) {
    case System::kDom: {
      m.compile_seconds = compile_timer.Seconds();
      WallTimer preprocess_timer;
      Result<dom::Document> document = dom::BuildFromString(xml_text);
      XSQ_RETURN_IF_ERROR(document.status());
      m.preprocess_seconds = preprocess_timer.Seconds();
      WallTimer timer;
      Result<dom::EvalResult> result = dom::Evaluate(*document, *query);
      XSQ_RETURN_IF_ERROR(result.status());
      m.query_seconds = timer.Seconds();
      m.item_count = result->items.size();
      m.peak_memory_bytes = document->ApproxBytes();
      return m;
    }
    case System::kTextIndex: {
      m.compile_seconds = compile_timer.Seconds();
      WallTimer preprocess_timer;
      auto engine = textindex::TextIndexEngine::Build(xml_text);
      if (!engine.ok()) {
        return Unsupported(engine.status().message(), xml_text.size());
      }
      m.preprocess_seconds = preprocess_timer.Seconds();
      WallTimer timer;
      Result<dom::EvalResult> result = (*engine)->Evaluate(*query);
      XSQ_RETURN_IF_ERROR(result.status());
      m.query_seconds = timer.Seconds();
      m.item_count = result->items.size();
      m.peak_memory_bytes = (*engine)->ApproxBytes();
      return m;
    }
    case System::kPureParser:
    case System::kXsqF:
    case System::kXsqNc:
    case System::kLazyDfa:
    case System::kNaive:
      break;  // handled above
  }
  return Status::Internal("unknown system");
}

double RelativeThroughput(const RunMeasurement& run,
                          const RunMeasurement& pure_parser) {
  double pure = pure_parser.throughput_mb_per_s();
  double own = run.throughput_mb_per_s();
  if (pure <= 0.0) return 0.0;
  return own / pure;
}

}  // namespace xsq::bench
