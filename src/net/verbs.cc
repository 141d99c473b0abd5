#include "net/verbs.h"

#include "common/strings.h"

namespace xsq::net {

const VerbSpec* FindVerb(std::string_view name) {
  for (const VerbSpec& spec : kVerbs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const VerbSpec* ResolveVerb(std::string_view* line, VerbHost self,
                            std::string* out) {
  std::string_view command = TakeWord(line);
  if (command.empty()) return nullptr;  // blank line: ignore
  const VerbSpec* spec = FindVerb(command);
  if (spec == nullptr) {
    Reply(out, "ERR InvalidArgument: unknown command '" +
                   std::string(command) + "'");
    return nullptr;
  }
  if (spec->host == VerbHost::kShardAndRouter || spec->host == self) {
    return spec;
  }
  Reply(out, "ERR NotSupported: " + std::string(spec->state) +
                 (spec->host == VerbHost::kShardOnly
                      ? " is per-shard state and is not routed; connect "
                        "to a shard directly"
                      : " is served by routers, not shards"));
  return nullptr;
}

std::optional<uint64_t> TakeSessionId(std::string_view* rest,
                                      std::string* out) {
  std::optional<uint64_t> id = ParseUint64(TakeWord(rest));
  if (!id.has_value()) Reply(out, "ERR InvalidArgument: bad session id");
  return id;
}

std::string_view TakeDocumentName(std::string_view* rest, std::string* out) {
  std::string_view name = TakeWord(rest);
  if (name.empty()) {
    Reply(out, "ERR InvalidArgument: missing document name");
  }
  return name;
}

void Reply(std::string* out, std::string_view line) {
  out->append(line);
  out->push_back('\n');
}

void ReplyStatus(std::string* out, const Status& status) {
  if (status.ok()) {
    Reply(out, "OK");
  } else {
    Reply(out, "ERR " + status.ToString());
  }
}

void ReplyBlock(std::string* out, std::string_view tag,
                std::string_view text) {
  for (std::string_view line : Split(text, '\n')) {
    if (line.empty()) continue;
    out->append(tag);
    out->push_back(' ');
    Reply(out, line);
  }
  Reply(out, "OK");
}

std::string BlockText(const std::vector<std::string>& lines,
                      std::string_view tag) {
  std::string text;
  for (const std::string& line : lines) {
    if (line.size() > tag.size() && line.starts_with(tag) &&
        line[tag.size()] == ' ') {
      text.append(line, tag.size() + 1);
      text.push_back('\n');
    }
  }
  return text;
}

}  // namespace xsq::net
