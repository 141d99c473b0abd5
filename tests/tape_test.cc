// Unit tests for the event-tape subsystem: symbol interning, the binary
// record format (round trip, rewind, save/load, corruption rejection),
// the projection mask, and record-time projection behavior.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/compiled_plan.h"
#include "tape/projection.h"
#include "tape/recorder.h"
#include "tape/replayer.h"
#include "tape/symbol_table.h"
#include "tape/tape.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xsq::tape {
namespace {

std::vector<xml::Event> ParseEvents(std::string_view document) {
  xml::RecordingHandler handler;
  xml::SaxParser parser(&handler);
  Status status = parser.Parse(document);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return handler.events;
}

Tape MustRecord(std::string_view document,
                const ProjectionMask* mask = nullptr) {
  Result<Tape> tape = RecordDocument(document, mask);
  EXPECT_TRUE(tape.ok()) << tape.status().ToString();
  return *std::move(tape);
}

std::vector<xml::Event> ReplayEvents(const Tape& tape) {
  xml::RecordingHandler handler;
  Status status = Replay(tape, &handler);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return handler.events;
}

ProjectionMask MaskFor(const std::vector<std::string>& query_texts) {
  std::vector<std::shared_ptr<const core::CompiledPlan>> plans;
  for (const std::string& text : query_texts) {
    Result<std::shared_ptr<const core::CompiledPlan>> plan =
        core::CompilePlan(text);
    EXPECT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    plans.push_back(*std::move(plan));
  }
  return ProjectionMask::FromPlans(plans);
}

TEST(SymbolTableTest, InternDedupes) {
  SymbolTable table;
  SymbolId a = table.Intern("alpha");
  SymbolId b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Name(a), "alpha");
  EXPECT_EQ(table.Name(b), "beta");
}

TEST(SymbolTableTest, FindWithoutInterning) {
  SymbolTable table;
  EXPECT_EQ(table.Find("missing"), SymbolTable::kInvalid);
  SymbolId id = table.Intern("present");
  EXPECT_EQ(table.Find("present"), id);
  EXPECT_EQ(table.Find("missing"), SymbolTable::kInvalid);
}

TEST(SymbolTableTest, ManySymbolsSurviveGrowth) {
  // Stresses the SSO hazard: index_ keys are views into names_ strings,
  // so container growth must not move them.
  SymbolTable table;
  std::vector<SymbolId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(table.Intern("sym" + std::to_string(i)));
  }
  EXPECT_EQ(table.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    std::string name = "sym" + std::to_string(i);
    EXPECT_EQ(table.Find(name), ids[static_cast<size_t>(i)]);
    EXPECT_EQ(table.Name(ids[static_cast<size_t>(i)]), name);
  }
  EXPECT_GT(table.memory_bytes(), 0u);
}

constexpr const char* kDoc =
    "<!DOCTYPE r [<!ELEMENT r (a*)>]>"
    "<r><a id=\"1\" x=\"y z\">hello</a><b/>tail<a>two</a></r>";

TEST(TapeTest, RoundTripReproducesFullEventStream) {
  std::vector<xml::Event> direct = ParseEvents(kDoc);
  Tape tape = MustRecord(kDoc);
  std::vector<xml::Event> replayed = ReplayEvents(tape);
  ASSERT_EQ(direct.size(), replayed.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_TRUE(direct[i] == replayed[i]) << "event " << i;
  }
}

TEST(TapeTest, StatsCountEvents) {
  Tape tape = MustRecord(kDoc);
  const TapeStats& stats = tape.stats();
  EXPECT_EQ(stats.begin_events, 4u);  // r, a, b, a
  EXPECT_EQ(stats.end_events, 4u);
  EXPECT_EQ(stats.text_events, 3u);  // hello, tail, two
  EXPECT_EQ(stats.attribute_count, 2u);
  EXPECT_EQ(stats.source_bytes, std::string_view(kDoc).size());
  // docbegin + doctype + 4 begin + 4 end + 3 text + docend
  EXPECT_EQ(tape.event_count(), 14u);
}

TEST(TapeTest, ReplayManyViaRewind) {
  Tape tape = MustRecord(kDoc);
  TapeReplayer replayer(tape);
  xml::RecordingHandler first;
  while (replayer.Step(&first, 2)) {
  }
  EXPECT_EQ(replayer.events_emitted(), tape.event_count());
  replayer.Rewind();
  xml::RecordingHandler second;
  while (replayer.Step(&second)) {
  }
  ASSERT_EQ(first.events.size(), second.events.size());
  for (size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_TRUE(first.events[i] == second.events[i]) << i;
  }
}

TEST(TapeTest, SaveLoadRoundTrips) {
  const char* path = "xsq_tape_roundtrip.bin";
  Tape tape = MustRecord(kDoc);
  ASSERT_TRUE(tape.Save(path).ok());
  Result<Tape> loaded = Tape::Load(path);
  std::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->event_count(), tape.event_count());
  EXPECT_EQ(loaded->stats().attribute_count, tape.stats().attribute_count);
  EXPECT_EQ(loaded->stats().source_bytes, tape.stats().source_bytes);
  std::vector<xml::Event> original = ReplayEvents(tape);
  std::vector<xml::Event> reloaded = ReplayEvents(*loaded);
  ASSERT_EQ(original.size(), reloaded.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(original[i] == reloaded[i]) << i;
  }
}

TEST(TapeTest, LoadRejectsBadMagic) {
  const char* path = "xsq_tape_badmagic.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATAPExxxxxxxxxxxxxxxx";
  }
  Result<Tape> loaded = Tape::Load(path);
  std::remove(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(TapeTest, LoadRejectsTruncation) {
  const char* path = "xsq_tape_truncated.bin";
  Tape tape = MustRecord(kDoc);
  ASSERT_TRUE(tape.Save(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Every strict prefix must be rejected, never crash or mis-load.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    Result<Tape> loaded = Tape::Load(path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path);
}

TEST(TapeTest, LoadRejectsCorruptRecords) {
  // With the v2 CRC trailers a byte-level corruption anywhere in the
  // file — magic, header, records, blob, or the checksums themselves —
  // must be rejected outright, never half-loaded.
  const char* path = "xsq_tape_corrupt.bin";
  Tape tape = MustRecord(kDoc);
  ASSERT_TRUE(tape.Save(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    Result<Tape> loaded = Tape::Load(path);
    EXPECT_FALSE(loaded.ok()) << "corrupted byte " << i << " loaded";
  }
  std::remove(path);
}

TEST(TapeTest, SerializeFromBytesRoundTripsInMemory) {
  Tape tape = MustRecord(kDoc);
  std::string image = tape.Serialize();
  EXPECT_EQ(image.substr(0, 8), "XSQTAPE2");
  Result<Tape> loaded = Tape::FromBytes(image, "in-memory");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->event_count(), tape.event_count());
  std::vector<xml::Event> original = ReplayEvents(tape);
  std::vector<xml::Event> reloaded = ReplayEvents(*loaded);
  ASSERT_EQ(original.size(), reloaded.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(original[i] == reloaded[i]) << i;
  }
}

TEST(TapeTest, BitFlipSweepRejectsEveryFlip) {
  // The acceptance bar from the failure model: CRC32C detects every
  // single-bit error, so flipping ANY single bit of a serialized tape
  // must make FromBytes fail with kDataCorruption. Exhaustive over all
  // bits of a small tape.
  Tape tape = MustRecord("<r><a id=\"1\">x</a></r>");
  const std::string image = tape.Serialize();
  size_t rejected = 0;
  size_t total = 0;
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      ++total;
      Result<Tape> loaded = Tape::FromBytes(std::move(mutated), "flip");
      if (!loaded.ok()) {
        ++rejected;
        EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption)
            << "byte " << byte << " bit " << bit << ": "
            << loaded.status().ToString();
      } else {
        ADD_FAILURE() << "flip of byte " << byte << " bit " << bit
                      << " was accepted";
      }
    }
  }
  EXPECT_EQ(rejected, total);
  EXPECT_EQ(total, image.size() * 8);
}

TEST(TapeTest, FromBytesRejectsTruncationWithDataCorruption) {
  Tape tape = MustRecord(kDoc);
  const std::string image = tape.Serialize();
  for (size_t cut = 0; cut < image.size(); ++cut) {
    Result<Tape> loaded = Tape::FromBytes(image.substr(0, cut), "prefix");
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption) << cut;
  }
}

TEST(TapeTest, LegacyV1ImagesAreRejected) {
  // The checksum-free v1 layout no longer loads. Built here from the v2
  // image: the v1 magic, then header, records and blob without their
  // CRC32C trailers.
  Tape tape = MustRecord(kDoc);
  const std::string v2 = tape.Serialize();
  const size_t records = tape.record_bytes();
  const size_t header_end =
      v2.size() - (records + tape.blob_bytes() + 3 * 4);
  std::string v1 = "XSQTAPE1" + v2.substr(8, header_end - 8) +
                   v2.substr(header_end + 4, records) +
                   v2.substr(header_end + 4 + records + 4, tape.blob_bytes());
  Result<Tape> loaded = Tape::FromBytes(v1, "v1 image");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ProjectionMaskTest, EmptyQuerySetKeepsEverything) {
  ProjectionMask mask = MaskFor({});
  EXPECT_TRUE(mask.keeps_everything());
}

TEST(ProjectionMaskTest, ElementOutputKeepsEverything) {
  // Serializing a matched subtree may need any event below the match.
  EXPECT_TRUE(MaskFor({"//a"}).keeps_everything());
  EXPECT_TRUE(MaskFor({"/r/a"}).keeps_everything());
  EXPECT_FALSE(MaskFor({"/r/a/text()"}).keeps_everything());
}

TEST(ProjectionMaskTest, ClosureFreePathPrunesByLevel) {
  ProjectionMask mask = MaskFor({"/r/a/text()"});
  EXPECT_TRUE(mask.KeepElement("r", 1));
  EXPECT_FALSE(mask.KeepElement("x", 1));
  EXPECT_TRUE(mask.KeepElement("a", 2));
  EXPECT_FALSE(mask.KeepElement("b", 2));
  // Below the path's depth nothing can matter.
  EXPECT_FALSE(mask.KeepElement("a", 3));
  EXPECT_TRUE(mask.KeepText("a"));
  EXPECT_FALSE(mask.KeepText("r"));
}

TEST(ProjectionMaskTest, PredicateChildTagsAreKept) {
  // [year] inspects a child element of inproceedings; that level must
  // admit year even though the path step is title.
  ProjectionMask mask =
      MaskFor({"/dblp/inproceedings[author]/title/text()"});
  EXPECT_TRUE(mask.KeepElement("dblp", 1));
  EXPECT_TRUE(mask.KeepElement("inproceedings", 2));
  EXPECT_TRUE(mask.KeepElement("title", 3));
  EXPECT_TRUE(mask.KeepElement("author", 3));
  EXPECT_FALSE(mask.KeepElement("year", 3));
  EXPECT_TRUE(mask.KeepText("title"));
}

TEST(ProjectionMaskTest, ClosureKeepsAllStructureBeyondPrefix) {
  ProjectionMask mask = MaskFor({"//line/text()"});
  EXPECT_FALSE(mask.keeps_everything());
  // No anchored prefix: any element at any depth may be an ancestor.
  EXPECT_TRUE(mask.KeepElement("anything", 1));
  EXPECT_TRUE(mask.KeepElement("anything", 7));
  EXPECT_TRUE(mask.KeepText("line"));
  EXPECT_FALSE(mask.KeepText("speaker"));
}

TEST(ProjectionMaskTest, AttributeSetsFollowQueries) {
  ProjectionMask mask = MaskFor({"/r/a/@id"});
  EXPECT_TRUE(mask.KeepAttributes("a"));
  EXPECT_FALSE(mask.KeepAttributes("r"));
  ProjectionMask all = MaskFor({"//*[@x]/text()"});
  EXPECT_TRUE(all.KeepAttributes("whatever"));
}

TEST(ProjectionMaskTest, UnionOfQueriesIsUnionOfMasks) {
  ProjectionMask mask = MaskFor({"/r/a/text()", "/r/b/c/text()"});
  EXPECT_TRUE(mask.KeepElement("a", 2));
  EXPECT_TRUE(mask.KeepElement("b", 2));
  EXPECT_TRUE(mask.KeepElement("c", 3));
  EXPECT_FALSE(mask.KeepElement("d", 2));
  EXPECT_TRUE(mask.KeepText("a"));
  EXPECT_TRUE(mask.KeepText("c"));
  EXPECT_FALSE(mask.KeepText("b"));
}

TEST(TapeRecorderTest, ProjectionDropsIrrelevantSubtrees) {
  const char* doc =
      "<r>"
      "<a k=\"v\">keep</a>"
      "<junk><deep><deeper>gone</deeper></deep></junk>"
      "<a>more</a>"
      "</r>";
  ProjectionMask mask = MaskFor({"/r/a/text()"});
  Tape tape = MustRecord(doc, &mask);
  const TapeStats& stats = tape.stats();
  EXPECT_EQ(stats.begin_events, 3u);  // r, a, a
  EXPECT_EQ(stats.dropped_subtrees, 1u);  // junk (with its whole subtree)
  EXPECT_EQ(stats.dropped_attributes, 1u);  // k="v" (query never reads it)
  EXPECT_EQ(stats.text_events, 2u);

  // Replayed events still form a depth-contiguous legal stream.
  std::vector<xml::Event> events = ReplayEvents(tape);
  for (const xml::Event& event : events) {
    EXPECT_NE(event.tag, "junk");
    EXPECT_NE(event.tag, "deeper");
  }
}

TEST(TapeRecorderTest, ProjectedTapeIsSmaller) {
  std::string doc = "<r>";
  for (int i = 0; i < 200; ++i) {
    doc += "<a>k" + std::to_string(i) + "</a>";
    doc += "<noise attr=\"padding\"><x>waste</x><y>waste</y></noise>";
  }
  doc += "</r>";
  Tape full = MustRecord(doc);
  ProjectionMask mask = MaskFor({"/r/a/text()"});
  Tape projected = MustRecord(doc, &mask);
  EXPECT_LT(projected.memory_bytes(), full.memory_bytes() / 2);
  EXPECT_EQ(projected.stats().dropped_subtrees, 200u);
}

TEST(TapeRecorderTest, TeeRecordsWhileServing) {
  // A recorder can sit in a TeeHandler next to another consumer.
  xml::RecordingHandler live;
  Tape tape;
  TapeRecorder recorder(&tape);
  xml::TeeHandler tee({&live, &recorder});
  xml::SaxParser parser(&tee);
  ASSERT_TRUE(parser.Parse(kDoc).ok());
  std::vector<xml::Event> replayed = ReplayEvents(tape);
  ASSERT_EQ(live.events.size(), replayed.size());
  for (size_t i = 0; i < live.events.size(); ++i) {
    EXPECT_TRUE(live.events[i] == replayed[i]) << i;
  }
}

TEST(TapeRecorderTest, ReprojectingAnExistingTape) {
  // Recording a replay under a narrower mask shrinks an existing tape
  // without touching the source document.
  Tape full = MustRecord(kDoc);
  ProjectionMask mask = MaskFor({"/r/a/text()"});
  Tape narrow;
  TapeRecorder recorder(&narrow, &mask);
  ASSERT_TRUE(Replay(full, &recorder).ok());
  EXPECT_LT(narrow.event_count(), full.event_count());
  std::vector<xml::Event> events = ReplayEvents(narrow);
  for (const xml::Event& event : events) {
    EXPECT_NE(event.tag, "b");
  }
}

}  // namespace
}  // namespace xsq::tape
