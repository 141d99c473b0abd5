// xsq_cli: a command-line streaming XPath processor, the shape of the
// tool the paper released ("the XSQ system, which will be released under
// the GNU GPL license").
//
// Usage:
//   xsq_cli [--engine=f|nc|dom|lazydfa|naive] [--explain] [--stats]
//           [--trace] [--validate] QUERY [FILE]
//
// --validate checks the stream against the DTD carried in its own
// DOCTYPE internal subset, in the same pass as the query.
//
// Reads FILE (or stdin when omitted) and prints one result item per
// line; aggregation queries print running updates and the final value.
// --explain prints the compiled HPDT (Figure 11 style) and exits.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/engine_nc.h"
#include "core/hpdt.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "core/trace.h"
#include "dom/builder.h"
#include "dtd/dtd.h"
#include "dtd/validator.h"
#include "dom/evaluator.h"
#include "lazydfa/lazy_dfa_engine.h"
#include "naive/naive_engine.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace {

class StdoutSink : public xsq::core::ResultSink {
 public:
  void OnItem(std::string_view value) override {
    std::fwrite(value.data(), 1, value.size(), stdout);
    std::fputc('\n', stdout);
    ++items;
  }
  void OnAggregateUpdate(double value) override {
    std::printf("update: %g\n", value);
  }
  void OnAggregateFinal(std::optional<double> value) override {
    if (value.has_value()) {
      std::printf("final: %g\n", *value);
    } else {
      std::printf("final: (undefined)\n");
    }
  }
  size_t items = 0;
};

// Validates the stream against the DOCTYPE internal subset it carries,
// in the same pass as the query (--validate).
class AutoValidator : public xsq::xml::SaxHandler {
 public:
  void OnDoctype(std::string_view name,
                 std::string_view internal_subset) override {
    if (internal_subset.empty()) return;
    xsq::Result<xsq::dtd::Dtd> dtd = xsq::dtd::Dtd::Parse(internal_subset);
    if (!dtd.ok()) {
      status_ = dtd.status();
      return;
    }
    dtd_ = std::make_unique<xsq::dtd::Dtd>(*std::move(dtd));
    validator_ =
        std::make_unique<xsq::dtd::DtdValidator>(*dtd_, std::string(name));
    validator_->OnDocumentBegin();
  }
  void OnBegin(std::string_view tag,
               const std::vector<xsq::xml::Attribute>& attributes,
               int depth) override {
    if (validator_) validator_->OnBegin(tag, attributes, depth);
  }
  void OnEnd(std::string_view tag, int depth) override {
    if (validator_) validator_->OnEnd(tag, depth);
  }
  void OnText(std::string_view tag, std::string_view text,
              int depth) override {
    if (validator_) validator_->OnText(tag, text, depth);
  }

  xsq::Status status() const {
    if (!status_.ok()) return status_;
    if (validator_) return validator_->status();
    return xsq::Status::OK();
  }
  bool saw_dtd() const { return validator_ != nullptr; }

 private:
  std::unique_ptr<xsq::dtd::Dtd> dtd_;
  std::unique_ptr<xsq::dtd::DtdValidator> validator_;
  xsq::Status status_;
};

// Prints each buffer operation as it happens (--trace).
class TracePrinter : public xsq::core::TraceListener {
 public:
  void OnBufferOp(const xsq::core::BufferOp& op) override {
    std::fprintf(stderr, "trace: %s\n", op.ToString().c_str());
  }
};

int Fail(const xsq::Status& status) {
  std::fprintf(stderr, "xsq_cli: %s\n", status.ToString().c_str());
  return 1;
}

// Streams `in` through `engine` and checks the engine's status.
int StreamThrough(xsq::core::StreamingEngine* engine, std::istream& in,
                  bool validate) {
  xsq::xml::SaxHandler* handler = engine;
  AutoValidator auto_validator;
  xsq::xml::TeeHandler tee;
  tee.AddTarget(handler);
  if (validate) {
    tee.AddTarget(&auto_validator);
    handler = &tee;
  }
  xsq::xml::SaxParser parser(handler);
  std::string buffer(1 << 16, '\0');
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    std::streamsize got = in.gcount();
    if (got <= 0) break;
    xsq::Status status =
        parser.Feed(std::string_view(buffer.data(), static_cast<size_t>(got)));
    if (!status.ok()) return Fail(status);
  }
  xsq::Status status = parser.Finish();
  if (!status.ok()) return Fail(status);
  if (!engine->status().ok()) return Fail(engine->status());
  if (validate) {
    if (!auto_validator.saw_dtd()) {
      std::fprintf(stderr,
                   "xsq_cli: --validate: no DOCTYPE internal subset found\n");
    } else if (!auto_validator.status().ok()) {
      std::fprintf(stderr, "xsq_cli: %s\n",
                   auto_validator.status().ToString().c_str());
      return 1;
    } else {
      std::fprintf(stderr, "xsq_cli: document valid per its DOCTYPE\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine_name = "f";
  bool explain = false;
  bool stats = false;
  bool trace = false;
  bool validate = false;
  std::string query_text;
  std::string file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--engine=", 0) == 0) {
      engine_name = arg.substr(9);
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--validate") {
      validate = true;
    } else if (query_text.empty()) {
      query_text = arg;
    } else if (file.empty()) {
      file = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (query_text.empty()) {
    std::fprintf(stderr,
                 "usage: xsq_cli [--engine=f|nc|dom|lazydfa|naive] "
                 "[--explain] [--stats] [--trace] [--validate] QUERY "
                 "[FILE]\n");
    return 2;
  }

  xsq::Result<xsq::xpath::Query> query = xsq::xpath::ParseQuery(query_text);
  if (!query.ok()) return Fail(query.status());

  if (explain) {
    auto hpdt = xsq::core::Hpdt::Build(*query);
    if (!hpdt.ok()) return Fail(hpdt.status());
    std::fputs((*hpdt)->DebugString().c_str(), stdout);
    return 0;
  }

  std::ifstream file_stream;
  std::istream* in = &std::cin;
  if (!file.empty()) {
    file_stream.open(file, std::ios::binary);
    if (!file_stream) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    in = &file_stream;
  }

  StdoutSink sink;
  if (engine_name == "dom") {
    std::string content((std::istreambuf_iterator<char>(*in)),
                        std::istreambuf_iterator<char>());
    auto document = xsq::dom::BuildFromString(content);
    if (!document.ok()) return Fail(document.status());
    auto result = xsq::dom::Evaluate(*document, *query);
    if (!result.ok()) return Fail(result.status());
    for (const std::string& item : result->items) {
      std::printf("%s\n", item.c_str());
    }
    if (result->aggregate.has_value()) {
      std::printf("final: %g\n", *result->aggregate);
    }
    if (stats) {
      std::fprintf(stderr, "# dom_bytes=%zu matches=%zu\n",
                   document->ApproxBytes(), result->match_count);
    }
    return 0;
  }

  // The streaming engines: each prints its own --stats line.
  TracePrinter tracer;  // outlives the engine it is installed in
  std::unique_ptr<xsq::core::StreamingEngine> engine;
  std::function<void()> print_stats;
  if (engine_name == "f") {
    auto f = xsq::core::XsqEngine::Create(*query, &sink);
    if (!f.ok()) return Fail(f.status());
    if (trace) (*f)->set_trace(&tracer);
    print_stats = [f = f->get()] {
      std::fprintf(stderr,
                   "# matches=%llu items=%llu discarded=%llu peak_buffer=%zuB "
                   "hpdt_bpdts=%zu\n",
                   static_cast<unsigned long long>(f->stats().matches_created),
                   static_cast<unsigned long long>(f->items_emitted()),
                   static_cast<unsigned long long>(f->stats().items_discarded),
                   f->memory().peak_bytes(), f->hpdt().bpdt_count());
    };
    engine = *std::move(f);
  } else if (engine_name == "nc") {
    auto nc = xsq::core::XsqNcEngine::Create(*query, &sink);
    if (!nc.ok()) return Fail(nc.status());
    print_stats = [nc = nc->get()] {
      std::fprintf(stderr, "# items=%llu peak_buffer=%zuB\n",
                   static_cast<unsigned long long>(nc->items_emitted()),
                   nc->memory().peak_bytes());
    };
    engine = *std::move(nc);
  } else if (engine_name == "lazydfa") {
    auto dfa = xsq::lazydfa::LazyDfaEngine::Create(*query, &sink);
    if (!dfa.ok()) return Fail(dfa.status());
    print_stats = [dfa = dfa->get()] {
      std::fprintf(stderr, "# dfa_states=%zu\n", dfa->dfa_state_count());
    };
    engine = *std::move(dfa);
  } else if (engine_name == "naive") {
    auto naive = xsq::naive::NaiveEngine::Create(*query, &sink);
    if (!naive.ok()) return Fail(naive.status());
    print_stats = [naive = naive->get()] {
      std::fprintf(stderr, "# peak_buffer=%zuB\n",
                   naive->memory().peak_bytes());
    };
    engine = *std::move(naive);
  } else {
    std::fprintf(stderr, "unknown engine '%s'\n", engine_name.c_str());
    return 2;
  }
  int rc = StreamThrough(engine.get(), *in, validate);
  if (rc == 0 && stats) print_stats();
  return rc;
}
