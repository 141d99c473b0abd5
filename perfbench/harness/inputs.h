// Seeded inputs for the two workloads.
//
// Everything the system under test receives is generated here from the
// run's --seed: corpora, query mixes and request orders. The same seed
// gives byte-identical inputs. Seeds change document content and
// request order, not the shape of the load: each popularity rank has a
// fixed size (the middle of a log-uniform stratum) and a fixed
// generator, so the cost of a run does not swing with the seed.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// splitmix64: the harness's only random source.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Uniform();  // [0, 1)

 private:
  uint64_t state_;
};

// Derives an independent seed from `seed` and a label.
uint64_t SubSeed(uint64_t seed, uint64_t label);

enum class Corpus { kShake, kNasa, kDblp, kPsd, kRecursive, kOrdering };
inline constexpr int kCorpusCount = 6;

const char* CorpusName(Corpus corpus);
std::string GenerateCorpus(Corpus corpus, size_t bytes, uint64_t seed);

// Each corpus's query mix, in this order: closure-free (XSQ-NC),
// closure (XSQ-F), late predicate (buffers until the predicate
// decides), aggregation.
inline constexpr int kQueriesPerCorpus = 4;
std::vector<std::string> CorpusQueries(Corpus corpus);

// True for the late-predicate query of a corpus-major query list: the
// query that exists to make the buffer layer hold data. peak_buf_kb
// sums these, because their buffering follows the document structure;
// a closure query's buffering (//pub[year]//book on a pub without a
// year holds the pub's whole subtree) swings twentyfold with the seed.
inline bool IsLatePredicate(uint32_t query) {
  return query % kQueriesPerCorpus == 2;
}

struct Document {
  std::string name;
  Corpus corpus = Corpus::kShake;
  std::string xml;
};

// A (document, query) pair: indices into the workload's docs/queries.
struct Pair {
  uint32_t doc = 0;
  uint32_t query = 0;
};

// --- stream: six corpora pushed in fixed-size chunks ---------------------

struct StreamInputs {
  std::vector<Document> docs;        // kStreamDocsPerCorpus per corpus
  std::vector<std::string> queries;  // kQueriesPerCorpus per corpus
  std::vector<Pair> pairs;           // every doc with its corpus's queries
  std::vector<uint32_t> order;       // seeded visiting order of `pairs`
  size_t chunk_bytes = 64 << 10;
};
inline constexpr int kStreamDocsPerCorpus = 2;
inline constexpr size_t kStreamDocBytes = 256 << 10;
StreamInputs MakeStreamInputs(uint64_t seed);

// --- cluster_read ---------------------------------------------------------

struct ClusterInputs {
  // kClusterDocs RECORDed documents. Index = popularity rank.
  std::vector<Document> docs;
  std::vector<double> popularity_cdf;  // Zipf over ranks
  // kQueriesPerCorpus per generator, generator-major (the ORDERING
  // template is not served).
  std::vector<std::string> queries;
};
inline constexpr int kClusterDocs = 40;
inline constexpr int kClusterGenerators = 5;
inline constexpr size_t kClusterMinBytes = 16 << 10;
inline constexpr size_t kClusterMaxBytes = 1 << 20;
ClusterInputs MakeClusterInputs(uint64_t seed);

// Query `pick` (0..3) of the mix of cluster document `doc`'s generator,
// as an index into ClusterInputs::queries.
uint32_t QueryFor(uint32_t doc, uint32_t pick);

// A closed-loop connection's request sequence: Zipf document, then a
// uniform query of that document's generator. Deterministic per
// (seed, connection).
class ReadStream {
 public:
  ReadStream(const ClusterInputs& in, uint64_t seed, int connection);
  Pair Next();

 private:
  const ClusterInputs& in_;
  Rng rng_;
};

// 64-bit FNV-1a, chained through `hash`: the digest every reference
// answer is compared by.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 14695981039346656037ull);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
