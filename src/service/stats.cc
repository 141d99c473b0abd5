#include "service/stats.h"

#include <algorithm>
#include <optional>

#include "common/strings.h"

namespace xsq::service {

namespace {

constexpr std::string_view kObsEnabledMetric = "xsq_obs_enabled";
constexpr std::string_view kMetricPrefix = "xsq_";

struct FieldSpec {
  std::string_view name;
  uint64_t StatsSnapshot::*field;
  obs::ScalarKind kind;
  obs::ScalarMerge merge;
};

constexpr FieldSpec kFields[] = {
#define XSQ_STATS_SPEC(field, kind, merge)                          \
  {#field, &StatsSnapshot::field, obs::ScalarKind::kind,            \
   obs::ScalarMerge::merge},
    XSQ_SERVICE_STATS(XSQ_STATS_SPEC)
#undef XSQ_STATS_SPEC
};

}  // namespace

std::string StatsSnapshot::ToString() const {
  std::string out;
  for (const FieldSpec& spec : kFields) {
    out += spec.name;
    out += ' ';
    out += std::to_string(this->*spec.field);
    out += '\n';
  }
  return out;
}

Result<StatsSnapshot> StatsSnapshot::Parse(std::string_view text) {
  StatsSnapshot snap;
  for (std::string_view line : Split(text, '\n')) {
    if (line.empty()) continue;
    size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("malformed stats line: " + std::string(line));
    }
    std::string_view name = line.substr(0, space);
    std::optional<uint64_t> value = ParseUint64(line.substr(space + 1));
    if (!value.has_value()) {
      return Status::ParseError("bad stats value: " + std::string(line));
    }
    auto spec = std::find_if(
        std::begin(kFields), std::end(kFields),
        [name](const FieldSpec& candidate) { return candidate.name == name; });
    if (spec == std::end(kFields)) {
      return Status::ParseError("unknown stats name: " + std::string(name));
    }
    snap.*spec->field = *value;
  }
  return snap;
}

void StatsSnapshot::Merge(const StatsSnapshot& other) {
  for (const FieldSpec& spec : kFields) {
    uint64_t& mine = this->*spec.field;
    if (spec.merge == obs::ScalarMerge::kMax) {
      mine = std::max(mine, other.*spec.field);
    } else {
      mine += other.*spec.field;
    }
  }
}

void StatsSnapshot::AppendMetrics(obs::Exposition* doc) const {
  // The per-phase hooks are always compiled in, so this reads 1; it
  // stays in the exposition so scrapers keyed on it keep working.
  doc->AddScalar(kObsEnabledMetric, obs::ScalarKind::kGauge, 1);
  std::string name(kMetricPrefix);
  for (const FieldSpec& spec : kFields) {
    name.resize(kMetricPrefix.size());
    name += spec.name;
    doc->AddScalar(name, spec.kind, this->*spec.field);
  }
}

obs::ScalarMerge MetricMergeRule(std::string_view name) {
  if (name == kObsEnabledMetric) return obs::ScalarMerge::kMax;
  if (name.starts_with(kMetricPrefix)) {
    name.remove_prefix(kMetricPrefix.size());
    for (const FieldSpec& spec : kFields) {
      if (spec.name == name) return spec.merge;
    }
  }
  return obs::ScalarMerge::kSum;
}

StatsSnapshot ServiceStats::Snapshot() const {
  StatsSnapshot snap;
#define XSQ_STATS_LOAD(field, kind, merge) snap.field = Get(Stat::field);
  XSQ_SERVICE_STATS(XSQ_STATS_LOAD)
#undef XSQ_STATS_LOAD
  return snap;
}

}  // namespace xsq::service
