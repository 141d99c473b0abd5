// Figure 16: relative throughput (normalized to the PureParser) of all
// systems for queries Q1-Q3 on the SHAKE corpus. Each system is timed
// against the PureParser in alternating rounds (RunPaired); the table
// reports the median per-round ratio.
//
//   Q1: /PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()   (predicate)
//   Q2: /PLAY/ACT/SCENE/SPEECH/SPEAKER/text()              (plain path)
//   Q3: //ACT//SPEAKER/text()                              (closures)
#include <string>

#include "datagen/generators.h"
#include "fig_util.h"

namespace xsq::bench {
namespace {

int Main() {
  PrintHeader("Figure 16",
              "relative throughput by query, SHAKE dataset");
  const std::string xml =
      datagen::GenerateShake(ScaledBytes(8u << 20), 2003);

  const struct {
    const char* name;
    const char* query;
  } queries[] = {
      {"Q1", "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()"},
      {"Q2", "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()"},
      {"Q3", "//ACT//SPEAKER/text()"},
  };
  const System systems[] = {System::kXsqNc, System::kXsqF,
                            System::kLazyDfa,  System::kDom,
                            System::kNaive,    System::kTextIndex};

  for (const auto& q : queries) {
    std::printf("\n%s: %s\n", q.name, q.query);
    TablePrinter table({"System", "Rel. throughput", "", "MB/s", "Items"});
    for (System system : systems) {
      Result<PairedRun> m = RunPaired(system, q.query, xml);
      if (!m.ok()) {
        std::fprintf(stderr, "%s: %s\n", SystemName(system),
                     m.status().ToString().c_str());
        return 1;
      }
      if (!m->run.supported) {
        table.AddRow({SystemName(system), "(cannot handle the query)", "",
                      "", ""});
        continue;
      }
      table.AddRow({SystemName(system), FormatDouble(m->relative, 3),
                    Bar(m->relative), FormatDouble(m->mb_per_s, 1),
                    std::to_string(m->run.item_count)});
    }
    table.Print();
  }
  std::printf(
      "\nPaper shape check (Fig. 16): XMLTK-like and XSQ-NC are the\n"
      "fastest where applicable; XSQ-F pays for nondeterminism (more so\n"
      "on Q3's closures); the DOM system sits below the streaming\n"
      "engines once its preprocessing is charged.\n");
  return 0;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
