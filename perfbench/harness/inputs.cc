#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "datagen/generators.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t SubSeed(uint64_t seed, uint64_t label) {
  Rng rng(seed ^ (label * 0xd1b54a32d192ed03ull));
  return rng.Next();
}

const char* CorpusName(Corpus corpus) {
  switch (corpus) {
    case Corpus::kShake: return "SHAKE";
    case Corpus::kNasa: return "NASA";
    case Corpus::kDblp: return "DBLP";
    case Corpus::kPsd: return "PSD";
    case Corpus::kRecursive: return "RECURSIVE";
    case Corpus::kOrdering: return "ORDERING";
  }
  return "?";
}

std::string GenerateCorpus(Corpus corpus, size_t bytes, uint64_t seed) {
  switch (corpus) {
    case Corpus::kShake: return xsq::datagen::GenerateShake(bytes, seed);
    case Corpus::kNasa: return xsq::datagen::GenerateNasa(bytes, seed);
    case Corpus::kDblp: return xsq::datagen::GenerateDblp(bytes, seed);
    case Corpus::kPsd: return xsq::datagen::GeneratePsd(bytes, seed);
    case Corpus::kRecursive:
      return xsq::datagen::GenerateRecursivePubs(bytes, seed);
    case Corpus::kOrdering: {
      // The Fig. 21 template has no seed of its own; the seed moves the
      // filler count by up to 5% around 2000 (about 24 KB per <a>).
      Rng rng(seed);
      int fillers = 1950 + static_cast<int>(rng.Below(101));
      return xsq::datagen::GenerateOrderingDataset(bytes, fillers);
    }
  }
  return {};
}

std::vector<std::string> CorpusQueries(Corpus corpus) {
  switch (corpus) {
    case Corpus::kShake:
      return {"/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
              "//ACT//SPEAKER/text()",
              "/PLAY/ACT/SCENE/SPEECH[LINE%crown]/SPEAKER/text()",
              "//SPEECH/count()"};
    case Corpus::kNasa:
      return {"/datasets/dataset/reference/source/other/name/text()",
              "//dataset/title/text()",
              "//dataset[tableHead]/title/text()",
              "//reference/count()"};
    case Corpus::kDblp:
      return {"/dblp/article/title/text()",
              "//inproceedings/booktitle/text()",
              "/dblp/article[year>1995]/author/text()",
              "/dblp/article/year/avg()"};
    case Corpus::kPsd:
      return {"/ProteinDatabase/ProteinEntry/reference/refinfo/authors/"
              "author/text()",
              "//ProteinEntry//author/text()",
              "/ProteinDatabase/ProteinEntry[sequence]/protein/name/text()",
              "//refinfo/year/max()"};
    case Corpus::kRecursive:
      return {"/pubs/pub/book/title/text()",
              "//pub[year]//book[@id]/title/text()",
              "//book[price<50]/title/text()",
              "//book/price/sum()"};
    case Corpus::kOrdering:
      return {"/data/a[@id=0]", "//a/prior/text()", "/*/a[posterior=0]",
              "/data/a/prior/count()"};
  }
  return {};
}

namespace {

// Generators stop at a record boundary, so one seed can overshoot a
// small target by a whole record (a SHAKE <ACT> is up to ~27 KB). Of
// up to 16 derived seeds, keep the document closest to the target, so
// the seed does not move the cost of a rank.
std::string GenerateSized(Corpus corpus, size_t bytes, uint64_t seed) {
  std::string best;
  for (uint64_t attempt = 0; attempt < 16; ++attempt) {
    std::string doc = GenerateCorpus(corpus, bytes, SubSeed(seed, attempt));
    auto miss = [bytes](const std::string& d) {
      return d.size() > bytes ? d.size() - bytes : bytes - d.size();
    };
    if (best.empty() || miss(doc) < miss(best)) best = std::move(doc);
    if (miss(best) <= bytes / 50) break;
  }
  return best;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// The log-uniform size at the middle of stratum `k` of `strata`
// between lo and hi. Sizes do not depend on the seed.
size_t StratifiedSize(size_t lo, size_t hi, int k, int strata) {
  double t = (k + 0.5) / strata;
  return static_cast<size_t>(lo * std::pow(static_cast<double>(hi) / lo, t));
}

}  // namespace

StreamInputs MakeStreamInputs(uint64_t seed) {
  StreamInputs in;
  for (int c = 0; c < kCorpusCount; ++c) {
    const Corpus corpus = static_cast<Corpus>(c);
    const uint32_t first_query = static_cast<uint32_t>(in.queries.size());
    for (std::string& q : CorpusQueries(corpus)) in.queries.push_back(q);
    for (int d = 0; d < kStreamDocsPerCorpus; ++d) {
      Document doc;
      doc.corpus = corpus;
      doc.name = std::string(CorpusName(corpus)) + "-" + std::to_string(d);
      doc.xml = GenerateSized(corpus, kStreamDocBytes,
                              SubSeed(seed, 100 + c * 10 + d));
      const uint32_t doc_index = static_cast<uint32_t>(in.docs.size());
      in.docs.push_back(std::move(doc));
      for (uint32_t q = 0; q < kQueriesPerCorpus; ++q) {
        in.pairs.push_back({doc_index, first_query + q});
      }
    }
  }
  for (uint32_t i = 0; i < in.pairs.size(); ++i) in.order.push_back(i);
  Rng rng(SubSeed(seed, 1));
  Shuffle(&in.order, &rng);
  return in;
}

ClusterInputs MakeClusterInputs(uint64_t seed) {
  ClusterInputs in;
  for (int g = 0; g < kClusterGenerators; ++g) {
    for (std::string& q : CorpusQueries(static_cast<Corpus>(g))) {
      in.queries.push_back(q);
    }
  }
  for (int rank = 0; rank < kClusterDocs; ++rank) {
    // Rank -> (size stratum, generator) is fixed; 17 is coprime to 40,
    // so every stratum is used once and popular ranks sit mid-range.
    const int stratum = (kClusterDocs / 2 + 17 * rank) % kClusterDocs;
    Document doc;
    doc.corpus = static_cast<Corpus>(rank % kClusterGenerators);
    doc.name = "doc" + std::to_string(rank);
    doc.xml = GenerateSized(
        doc.corpus,
        StratifiedSize(kClusterMinBytes, kClusterMaxBytes, stratum,
                       kClusterDocs),
        SubSeed(seed, 1000 + rank));
    in.docs.push_back(std::move(doc));
  }
  double total = 0.0;
  for (int rank = 0; rank < kClusterDocs; ++rank) total += 1.0 / (rank + 1);
  double acc = 0.0;
  for (int rank = 0; rank < kClusterDocs; ++rank) {
    acc += 1.0 / (rank + 1) / total;
    in.popularity_cdf.push_back(acc);
  }
  in.popularity_cdf.back() = 1.0;
  return in;
}

uint32_t QueryFor(uint32_t doc, uint32_t pick) {
  const uint32_t generator = doc % kClusterGenerators;
  return generator * kQueriesPerCorpus + pick % kQueriesPerCorpus;
}

ReadStream::ReadStream(const ClusterInputs& in, uint64_t seed, int connection)
    : in_(in), rng_(SubSeed(seed, 3000 + connection)) {}

Pair ReadStream::Next() {
  const double u = rng_.Uniform();
  const uint32_t doc = static_cast<uint32_t>(
      std::lower_bound(in_.popularity_cdf.begin(), in_.popularity_cdf.end(),
                       u) -
      in_.popularity_cdf.begin());
  return {doc, QueryFor(doc, static_cast<uint32_t>(rng_.Below(4)))};
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
