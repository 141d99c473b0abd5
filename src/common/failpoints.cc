#include "common/failpoints.h"

#include <cstdio>
#include <cstdlib>

namespace xsq {
namespace {

// splitmix64: deterministic, seedable, good enough for probability
// triggers (this is test infrastructure, not cryptography).
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Parses XSQ_FAILPOINTS at startup: Fire's fast path does not touch
// Instance(), so nothing else would.
[[maybe_unused]] const FailPoints& armed_from_env = FailPoints::Instance();

}  // namespace

FailPoints& FailPoints::Instance() {
  static FailPoints* instance = [] {
    auto* fp = new FailPoints();
    if (const char* env = std::getenv("XSQ_FAILPOINTS")) {
      // A bad spec in the environment should be loud but not fatal:
      // the daemon keeps running with whatever did parse.
      Status parsed = fp->ArmFromEnvSpec(env);
      if (!parsed.ok()) {
        std::fprintf(stderr, "[xsq] XSQ_FAILPOINTS: %s\n",
                     parsed.ToString().c_str());
      }
    }
    return fp;
  }();
  return *instance;
}

void FailPoints::Arm(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_[std::string(name)] = State{};
  NoteArmedLocked();
}

void FailPoints::ArmProbability(std::string_view name, double p,
                                uint64_t seed) {
  State state;
  state.mode = Mode::kProbability;
  state.probability = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  state.rng = seed ^ 0x5DEECE66Dull;
  std::lock_guard<std::mutex> lock(mu_);
  armed_[std::string(name)] = state;
  NoteArmedLocked();
}

void FailPoints::ArmAfter(std::string_view name, uint64_t n) {
  State state;
  state.mode = Mode::kAfterN;
  state.after = n;
  std::lock_guard<std::mutex> lock(mu_);
  armed_[std::string(name)] = state;
  NoteArmedLocked();
}

void FailPoints::Disarm(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(std::string(name));
  NoteArmedLocked();
}

void FailPoints::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  NoteArmedLocked();
}

bool FailPoints::FireArmed(std::string_view name) {
  FailPoints& fp = Instance();
  std::lock_guard<std::mutex> lock(fp.mu_);
  auto it = fp.armed_.find(std::string(name));
  if (it == fp.armed_.end()) return false;
  State& state = it->second;
  uint64_t hit = state.hits++;
  switch (state.mode) {
    case Mode::kAlways:
      return true;
    case Mode::kProbability:
      return static_cast<double>(NextRandom(&state.rng) >> 11) *
                 (1.0 / 9007199254740992.0) <
             state.probability;
    case Mode::kAfterN:
      return hit >= state.after;
  }
  return false;
}

uint64_t FailPoints::hits(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = armed_.find(std::string(name));
  return it == armed_.end() ? 0 : it->second.hits;
}

Status FailPoints::ArmFromEnvSpec(std::string_view env) {
  size_t pos = 0;
  while (pos < env.size()) {
    size_t comma = env.find(',', pos);
    std::string_view entry = env.substr(
        pos, comma == std::string_view::npos ? env.size() - pos : comma - pos);
    pos = comma == std::string_view::npos ? env.size() : comma + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    std::string_view name =
        eq == std::string_view::npos ? entry : entry.substr(0, eq);
    std::string_view spec =
        eq == std::string_view::npos ? "1" : entry.substr(eq + 1);
    if (name.empty()) {
      return Status::InvalidArgument("failpoint spec with empty name: '" +
                                     std::string(entry) + "'");
    }
    if (spec == "1" || spec == "always") {
      Arm(name);
    } else if (!spec.empty() && spec[0] == 'p') {
      char* end = nullptr;
      std::string prob(spec.substr(1));
      double p = std::strtod(prob.c_str(), &end);
      if (end == nullptr || *end != '\0' || prob.empty()) {
        return Status::InvalidArgument("bad probability in failpoint spec '" +
                                       std::string(entry) + "'");
      }
      ArmProbability(name, p);
    } else if (spec.rfind("after", 0) == 0) {
      std::string count(spec.substr(5));
      char* end = nullptr;
      uint64_t n = std::strtoull(count.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || count.empty()) {
        return Status::InvalidArgument("bad count in failpoint spec '" +
                                       std::string(entry) + "'");
      }
      ArmAfter(name, n);
    } else {
      return Status::InvalidArgument("unknown failpoint spec '" +
                                     std::string(entry) + "'");
    }
  }
  return Status::OK();
}

std::vector<std::string> FailPoints::ArmedNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(armed_.size());
  for (const auto& [name, state] : armed_) names.push_back(name);
  return names;
}

}  // namespace xsq
