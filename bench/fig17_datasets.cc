// Figure 17: relative throughput of the systems across the four
// datasets, using the per-dataset queries listed under the paper's
// figure. Each system is timed against the PureParser in alternating
// rounds (RunPaired); the table reports the median per-round ratio.
#include <string>

#include "datagen/generators.h"
#include "fig_util.h"

namespace xsq::bench {
namespace {

int Main() {
  PrintHeader("Figure 17", "relative throughput by dataset");
  const struct {
    const char* name;
    std::string xml;
    const char* query;
  } datasets[] = {
      {"SHAKE", datagen::GenerateShake(ScaledBytes(4u << 20), 1),
       "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()"},
      {"NASA", datagen::GenerateNasa(ScaledBytes(6u << 20), 1),
       "/datasets/dataset/reference/source/other/name/text()"},
      {"DBLP", datagen::GenerateDblp(ScaledBytes(10u << 20), 1),
       "/dblp/article/title/text()"},
      {"PSD", datagen::GeneratePsd(ScaledBytes(16u << 20), 1),
       "/ProteinDatabase/ProteinEntry/reference/refinfo/authors/author/"
       "text()"},
  };
  const System systems[] = {System::kXsqNc, System::kXsqF,
                            System::kLazyDfa,  System::kDom,
                            System::kNaive,    System::kTextIndex};

  for (const auto& dataset : datasets) {
    std::printf("\n%s (%s): %s\n", dataset.name,
                FormatBytes(dataset.xml.size()).c_str(), dataset.query);
    TablePrinter table({"System", "Rel. throughput", "", "MB/s"});
    for (System system : systems) {
      Result<PairedRun> m = RunPaired(system, dataset.query, dataset.xml);
      if (!m.ok()) return 1;
      if (!m->run.supported) {
        table.AddRow({SystemName(system), "(cannot handle the query)", "",
                      ""});
        continue;
      }
      table.AddRow({SystemName(system), FormatDouble(m->relative, 3),
                    Bar(m->relative), FormatDouble(m->mb_per_s, 1)});
    }
    table.Print();
  }
  std::printf(
      "\nPaper shape check (Fig. 17): the streaming engines keep a\n"
      "roughly constant fraction of PureParser speed on every dataset,\n"
      "while the DOM engine degrades as datasets grow.\n");
  return 0;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
