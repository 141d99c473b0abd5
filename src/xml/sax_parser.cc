#include "xml/sax_parser.h"

#include <cstring>
#include <fstream>

#include "common/failpoints.h"
#include "common/strings.h"
#include "xml/scan.h"

namespace xsq::xml {

namespace {

// Name-character classes as 256-entry tables: one load per byte beats
// the chained range compares in the per-byte tag-name scan.
struct NameCharTable {
  bool start[256] = {};
  bool part[256] = {};
  constexpr NameCharTable() {
    for (int c = 0; c < 256; ++c) {
      start[c] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 c == '_' || c == ':' || c >= 0x80;
      part[c] = start[c] || (c >= '0' && c <= '9') || c == '-' || c == '.';
    }
  }
};
constexpr NameCharTable kNameChars;

inline bool IsNameStartChar(unsigned char c) { return kNameChars.start[c]; }

inline bool IsNameChar(unsigned char c) { return kNameChars.part[c]; }

bool IsValidName(std::string_view name) {
  if (name.empty() || !IsNameStartChar(name[0])) return false;
  for (size_t i = 1; i < name.size(); ++i) {
    if (!IsNameChar(name[i])) return false;
  }
  return true;
}

// Appends the UTF-8 encoding of `codepoint` to `out`. Returns false for
// values outside the Unicode scalar range.
bool AppendUtf8(uint32_t codepoint, ArenaString* out) {
  if (codepoint <= 0x7f) {
    out->PushBack(static_cast<char>(codepoint));
  } else if (codepoint <= 0x7ff) {
    out->PushBack(static_cast<char>(0xc0 | (codepoint >> 6)));
    out->PushBack(static_cast<char>(0x80 | (codepoint & 0x3f)));
  } else if (codepoint <= 0xffff) {
    if (codepoint >= 0xd800 && codepoint <= 0xdfff) return false;
    out->PushBack(static_cast<char>(0xe0 | (codepoint >> 12)));
    out->PushBack(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3f)));
    out->PushBack(static_cast<char>(0x80 | (codepoint & 0x3f)));
  } else if (codepoint <= 0x10ffff) {
    out->PushBack(static_cast<char>(0xf0 | (codepoint >> 18)));
    out->PushBack(static_cast<char>(0x80 | ((codepoint >> 12) & 0x3f)));
    out->PushBack(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3f)));
    out->PushBack(static_cast<char>(0x80 | (codepoint & 0x3f)));
  } else {
    return false;
  }
  return true;
}

// Finds the first '>' in `s` that is not inside a quoted attribute value.
// Returns npos if none. Sets *saw_lt if a raw '<' occurs before it.
// Structural bytes ('>', '<', quotes) are located in 8/16-byte gulps;
// a quoted value is skipped to its closing quote in one memchr.
size_t FindTagEnd(std::string_view s, bool* saw_lt) {
  *saw_lt = false;
  size_t i = 1;  // s[0] is '<'
  while (true) {
    size_t pos = FindTagSpecial(s, i);
    if (pos == std::string_view::npos) return std::string_view::npos;
    char c = s[pos];
    if (c == '>') return pos;
    if (c == '<') {
      *saw_lt = true;
      return std::string_view::npos;
    }
    size_t close = s.find(c, pos + 1);
    if (close == std::string_view::npos) {
      return std::string_view::npos;  // quote still open: need more
    }
    i = close + 1;
  }
}

bool IsWhitespaceOnly(std::string_view s) {
  for (char c : s) {
    if (!IsXmlWhitespace(c)) return false;
  }
  return true;
}

// The xml.parse.io_error failpoint's status, out of line: built inline
// in Feed, its string construction changed how GCC 12 inlines
// ParseElementTag, and ext_scan's DBLP parse ran about 5% slower.
[[gnu::cold, gnu::noinline]] Status InjectedIoError() {
  return Status::Internal("injected I/O error reading input");
}

}  // namespace

SaxParser::SaxParser(SaxHandler* handler, ParserLimits limits)
    : handler_(handler), limits_(limits) {}

void SaxParser::Reset() {
  entity_expanded_bytes_ = 0;
  pending_.clear();
  text_state_ = TextState::kNone;
  has_pending_text_ = false;
  text_direct_ = std::string_view();
  text_.Clear();
  scratch_arena_.Reset();
  stack_arena_.Reset();
  open_elements_.clear();
  attributes_.clear();
  buf_ = std::string_view();
  anchor_ = 0;
  error_anchor_ = 0;
  seen_root_ = false;
  document_begun_ = false;
  bom_checked_ = false;
  finished_ = false;
  bytes_consumed_ = 0;
  line_ = 1;
  column_ = 1;
}

void SaxParser::SyncPosition(size_t offset) {
  if (offset <= anchor_) return;
  std::string_view span = buf_.substr(anchor_, offset - anchor_);
  anchor_ = offset;
  bytes_consumed_ += span.size();
  size_t newlines = CountNewlines(span);
  if (newlines == 0) {
    // Columns advance by code points: continuation bytes are part of
    // the preceding character, not a column of their own.
    column_ += static_cast<int>(CountCodepoints(span));
    return;
  }
  line_ += static_cast<int>(newlines);
  size_t last_newline = span.rfind('\n');
  column_ =
      1 + static_cast<int>(CountCodepoints(span.substr(last_newline + 1)));
}

Status SaxParser::ErrorHere(const std::string& message) {
  SyncPosition(error_anchor_);
  buf_ = std::string_view();  // dies with the enclosing ParseBuffer
  anchor_ = error_anchor_ = 0;
  return Status::ParseError(message + " at line " + std::to_string(line_) +
                            ", column " + std::to_string(column_));
}

Status SaxParser::LimitErrorHere(const std::string& message) {
  SyncPosition(error_anchor_);
  buf_ = std::string_view();
  anchor_ = error_anchor_ = 0;
  return Status::LimitExceeded(message + " at line " + std::to_string(line_) +
                               ", column " + std::to_string(column_));
}

// ------------------------------------------------------------- entities

Status SaxParser::AppendEntity(std::string_view name, ArenaString* out) {
  if (name == "#" || name == "#x" || name == "#X") {
    return ErrorHere("empty character reference '&" + std::string(name) +
                     ";'");
  }
  if (name == "lt") {
    out->PushBack('<');
  } else if (name == "gt") {
    out->PushBack('>');
  } else if (name == "amp") {
    out->PushBack('&');
  } else if (name == "apos") {
    out->PushBack('\'');
  } else if (name == "quot") {
    out->PushBack('"');
  } else if (!name.empty() && name[0] == '#') {
    uint32_t code = 0;
    bool valid = name.size() > 1;
    if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
      for (size_t i = 2; i < name.size() && valid; ++i) {
        char c = name[i];
        uint32_t digit;
        if (c >= '0' && c <= '9') {
          digit = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          digit = static_cast<uint32_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          digit = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          valid = false;
          break;
        }
        code = code * 16 + digit;
        if (code > 0x10ffff) valid = false;
      }
      valid = valid && name.size() > 2;
    } else {
      for (size_t i = 1; i < name.size() && valid; ++i) {
        char c = name[i];
        if (c < '0' || c > '9') {
          valid = false;
          break;
        }
        code = code * 10 + static_cast<uint32_t>(c - '0');
        if (code > 0x10ffff) valid = false;
      }
    }
    if (!valid || !AppendUtf8(code, out)) {
      return ErrorHere("invalid character reference '&" + std::string(name) +
                       ";'");
    }
  } else {
    return ErrorHere("unknown entity reference '&" + std::string(name) +
                     ";'");
  }
  return Status::OK();
}

Status SaxParser::DecodeEntities(std::string_view raw, ArenaString* out) {
  const size_t out_size_before = out->size();
  bool saw_reference = false;
  size_t pos = 0;
  while (pos < raw.size()) {
    const char* amp = static_cast<const char*>(
        memchr(raw.data() + pos, '&', raw.size() - pos));
    if (amp == nullptr) {
      out->Append(raw.substr(pos));
      break;
    }
    size_t amp_pos = static_cast<size_t>(amp - raw.data());
    out->Append(raw.substr(pos, amp_pos - pos));
    size_t semi = raw.find(';', amp_pos + 1);
    if (semi == std::string_view::npos) {
      return ErrorHere("unterminated entity reference");
    }
    // A terminator exists, so "unterminated" would be wrong; references
    // longer than any legal name or character code get their own error.
    // The bound is generous on purpose: zero-padded forms like
    // "&#0000000000000065;" are valid XML and must decode.
    if (semi - amp_pos - 1 > 64) {
      return ErrorHere("entity reference too long");
    }
    XSQ_RETURN_IF_ERROR(
        AppendEntity(raw.substr(amp_pos + 1, semi - amp_pos - 1), out));
    pos = semi + 1;
    saw_reference = true;
  }
  return ChargeTextRun(out->size() - out_size_before, saw_reference);
}

// Any run that contained references counts in full against the
// per-document expansion budget. DTD-declared entities are never
// expanded here (non-validating), so classic billion-laughs cannot
// amplify; the budget bounds how much reference-bearing text a single
// document may make the parser decode and buffer downstream.
Status SaxParser::ChargeTextRun(size_t decoded_bytes, bool saw_reference) {
  if (!saw_reference || limits_.max_entity_expansion == 0) {
    return Status::OK();
  }
  entity_expanded_bytes_ += decoded_bytes;
  if (entity_expanded_bytes_ > limits_.max_entity_expansion) {
    return LimitErrorHere("entity expansion budget exceeded (" +
                          std::to_string(limits_.max_entity_expansion) +
                          " bytes)");
  }
  return Status::OK();
}

// ----------------------------------------------------- text coalescing

void SaxParser::AppendRawText(std::string_view raw) {
  has_pending_text_ = true;
  if (raw.empty()) return;
  if (text_state_ == TextState::kNone) {
    text_state_ = TextState::kDirect;
    text_direct_ = raw;
    return;
  }
  if (text_state_ == TextState::kDirect &&
      raw.data() == text_direct_.data() + text_direct_.size()) {
    text_direct_ =
        std::string_view(text_direct_.data(), text_direct_.size() + raw.size());
    return;
  }
  MaterializeText();
  text_.Append(raw);
}

void SaxParser::MaterializeText() {
  if (text_state_ == TextState::kOwned) return;
  text_.Clear();
  if (text_state_ == TextState::kDirect) text_.Append(text_direct_);
  text_state_ = TextState::kOwned;
}

Status SaxParser::FlushText() {
  if (!has_pending_text_) return Status::OK();
  has_pending_text_ = false;
  std::string_view text;
  if (text_state_ == TextState::kDirect) {
    text = text_direct_;
  } else if (text_state_ == TextState::kOwned) {
    text = text_.view();
  }
  text_state_ = TextState::kNone;
  if (open_elements_.empty()) {
    text_.Clear();
    scratch_arena_.RewindAll();
    return ErrorHere("character data outside the root element");
  }
  handler_->OnText(open_elements_.back().name, text,
                   static_cast<int>(open_elements_.size()));
  text_.Clear();
  scratch_arena_.RewindAll();
  return Status::OK();
}

// --------------------------------------------------------------- tags

Status SaxParser::ParseElementTag(std::string_view markup_body,
                                  bool self_closing) {
  XSQ_RETURN_IF_ERROR(FlushText());
  size_t pos = 0;
  while (pos < markup_body.size() &&
         IsNameChar(static_cast<unsigned char>(markup_body[pos]))) {
    ++pos;
  }
  std::string_view name = markup_body.substr(0, pos);
  // The scan above admitted only name chars, so validity reduces to a
  // non-empty name whose first byte may start one.
  if (name.empty() || !IsNameStartChar(static_cast<unsigned char>(name[0]))) {
    return ErrorHere("invalid element name '" + std::string(name) + "'");
  }
  if (limits_.max_name_length != 0 && name.size() > limits_.max_name_length) {
    return LimitErrorHere("element name exceeds " +
                          std::to_string(limits_.max_name_length) + " bytes");
  }
  if (limits_.max_depth != 0 && open_elements_.size() >= limits_.max_depth) {
    return LimitErrorHere("element nesting exceeds depth limit " +
                          std::to_string(limits_.max_depth));
  }

  attributes_.clear();
  while (true) {
    while (pos < markup_body.size() && IsXmlWhitespace(markup_body[pos])) {
      ++pos;
    }
    if (pos >= markup_body.size()) break;
    size_t name_start = pos;
    while (pos < markup_body.size() &&
           IsNameChar(static_cast<unsigned char>(markup_body[pos]))) {
      ++pos;
    }
    std::string_view attr_name = markup_body.substr(name_start, pos - name_start);
    if (attr_name.empty() ||
        !IsNameStartChar(static_cast<unsigned char>(attr_name[0]))) {
      return ErrorHere("invalid attribute name in element '" +
                       std::string(name) + "'");
    }
    if (limits_.max_name_length != 0 &&
        attr_name.size() > limits_.max_name_length) {
      return LimitErrorHere("attribute name exceeds " +
                            std::to_string(limits_.max_name_length) +
                            " bytes");
    }
    if (limits_.max_attributes != 0 &&
        attributes_.size() >= limits_.max_attributes) {
      return LimitErrorHere("element '" + std::string(name) +
                            "' exceeds attribute limit " +
                            std::to_string(limits_.max_attributes));
    }
    while (pos < markup_body.size() && IsXmlWhitespace(markup_body[pos])) ++pos;
    if (pos >= markup_body.size() || markup_body[pos] != '=') {
      return ErrorHere("expected '=' after attribute '" +
                       std::string(attr_name) + "'");
    }
    ++pos;
    while (pos < markup_body.size() && IsXmlWhitespace(markup_body[pos])) ++pos;
    if (pos >= markup_body.size() ||
        (markup_body[pos] != '"' && markup_body[pos] != '\'')) {
      return ErrorHere("expected quoted value for attribute '" +
                       std::string(attr_name) + "'");
    }
    char quote = markup_body[pos];
    ++pos;
    size_t value_end = markup_body.find(quote, pos);
    if (value_end == std::string_view::npos) {
      return ErrorHere("unterminated value for attribute '" +
                       std::string(attr_name) + "'");
    }
    std::string_view raw_value = markup_body.substr(pos, value_end - pos);
    if (raw_value.find('<') != std::string_view::npos) {
      return ErrorHere("'<' is not allowed in attribute values");
    }
    for (const Attribute& existing : attributes_) {
      if (existing.name == attr_name) {
        return ErrorHere("duplicate attribute '" + std::string(attr_name) +
                         "'");
      }
    }
    Attribute attr;
    attr.name = attr_name;
    if (memchr(raw_value.data(), '&', raw_value.size()) == nullptr) {
      attr.value = raw_value;  // zero-copy: view straight into the input
    } else {
      ArenaString decoded(&scratch_arena_);
      XSQ_RETURN_IF_ERROR(DecodeEntities(raw_value, &decoded));
      attr.value = decoded.view();
    }
    attributes_.push_back(attr);
    pos = value_end + 1;
    if (pos < markup_body.size() && !IsXmlWhitespace(markup_body[pos])) {
      return ErrorHere("missing whitespace between attributes");
    }
  }

  if (open_elements_.empty()) {
    if (seen_root_) return ErrorHere("multiple root elements");
    seen_root_ = true;
  }
  // A self-closing element is popped before the input buffer can die, so
  // its stack entry may alias the buffer; anything longer-lived is
  // copied into the stack arena (rewound on pop, so storage ~ depth).
  Arena::Mark mark = stack_arena_.mark();
  std::string_view stored_name = self_closing ? name : stack_arena_.Store(name);
  open_elements_.push_back(OpenElement{stored_name, mark});
  int depth = static_cast<int>(open_elements_.size());
  handler_->OnBegin(name, attributes_, depth);
  if (self_closing) {
    handler_->OnEnd(name, depth);
    open_elements_.pop_back();
    stack_arena_.Rewind(mark);
  }
  // Decoded attribute values die with the callback.
  attributes_.clear();
  scratch_arena_.RewindAll();
  return Status::OK();
}

Status SaxParser::ParseEndTag(std::string_view markup_body) {
  XSQ_RETURN_IF_ERROR(FlushText());
  // Fast path: "</name>" with no stray whitespace matching the innermost
  // open element. The name was validated when its start tag opened, so
  // equality makes re-validation redundant.
  if (!open_elements_.empty() && markup_body == open_elements_.back().name) {
    handler_->OnEnd(markup_body, static_cast<int>(open_elements_.size()));
    stack_arena_.Rewind(open_elements_.back().mark);
    open_elements_.pop_back();
    return Status::OK();
  }
  std::string_view name = TrimWhitespace(markup_body);
  if (!IsValidName(name)) {
    return ErrorHere("invalid end tag '</" + std::string(markup_body) + ">'");
  }
  if (open_elements_.empty()) {
    return ErrorHere("end tag '</" + std::string(name) +
                     ">' with no open element");
  }
  if (open_elements_.back().name != name) {
    return ErrorHere("end tag '</" + std::string(name) +
                     ">' does not match open element '<" +
                     std::string(open_elements_.back().name) + ">'");
  }
  handler_->OnEnd(name, static_cast<int>(open_elements_.size()));
  stack_arena_.Rewind(open_elements_.back().mark);
  open_elements_.pop_back();
  return Status::OK();
}

// -------------------------------------------------------------- markup

Status SaxParser::HandleMarkup(std::string_view data, size_t* consumed,
                               Progress* progress) {
  *progress = Progress::kNeedMore;
  *consumed = 0;
  if (data.size() < 2) return Status::OK();

  char kind = data[1];
  if (kind == '/') {
    bool saw_lt = false;
    size_t gt = FindTagEnd(data, &saw_lt);
    if (saw_lt) return ErrorHere("'<' inside end tag");
    if (gt == std::string_view::npos) return Status::OK();
    XSQ_RETURN_IF_ERROR(ParseEndTag(data.substr(2, gt - 2)));
    *consumed = gt + 1;
    *progress = Progress::kOk;
    return Status::OK();
  }

  if (kind == '!') {
    static constexpr std::string_view kComment = "<!--";
    static constexpr std::string_view kCdata = "<![CDATA[";
    if (data.size() < kComment.size() &&
        kComment.substr(0, data.size()) == data) {
      return Status::OK();  // could still become a comment
    }
    if (data.substr(0, kComment.size()) == kComment) {
      size_t end = data.find("-->", kComment.size());
      if (end == std::string_view::npos) return Status::OK();
      std::string_view body = data.substr(kComment.size(),
                                          end - kComment.size());
      // XML 1.0 §2.5: the string "--" must not occur within comments,
      // and the content may not end with '-' (which would abut the
      // terminator as another "--").
      size_t double_hyphen = body.find("--");
      if (double_hyphen != std::string_view::npos) {
        // error_anchor_ holds the markup start; point it at the "--".
        error_anchor_ += kComment.size() + double_hyphen;
        return ErrorHere("'--' is not allowed within a comment");
      }
      if (!body.empty() && body.back() == '-') {
        error_anchor_ += end - 1;
        return ErrorHere("comment content may not end with '-'");
      }
      *consumed = end + 3;
      *progress = Progress::kOk;
      return Status::OK();
    }
    if (data.size() < kCdata.size() && kCdata.substr(0, data.size()) == data) {
      return Status::OK();
    }
    if (data.substr(0, kCdata.size()) == kCdata) {
      size_t end = data.find("]]>", kCdata.size());
      if (end == std::string_view::npos) return Status::OK();
      if (open_elements_.empty()) {
        return ErrorHere("CDATA section outside the root element");
      }
      AppendRawText(data.substr(kCdata.size(), end - kCdata.size()));
      *consumed = end + 3;
      *progress = Progress::kOk;
      return Status::OK();
    }
    // DOCTYPE or other declaration: skip to the matching '>', honoring a
    // bracketed internal subset and quoted strings. DOCTYPE name and
    // internal subset are reported to the handler.
    char quote = '\0';
    bool in_subset = false;
    size_t subset_begin = 0;
    size_t subset_end = 0;
    for (size_t i = 2; i < data.size(); ++i) {
      char c = data[i];
      if (quote != '\0') {
        if (c == quote) quote = '\0';
      } else if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '[') {
        in_subset = true;
        if (subset_begin == 0) subset_begin = i + 1;
      } else if (c == ']') {
        in_subset = false;
        subset_end = i;
      } else if (c == '>' && !in_subset) {
        if (limits_.max_doctype_bytes != 0 &&
            i + 1 > limits_.max_doctype_bytes) {
          return LimitErrorHere("declaration exceeds " +
                                std::to_string(limits_.max_doctype_bytes) +
                                " bytes");
        }
        static constexpr std::string_view kDoctype = "<!DOCTYPE";
        if (data.substr(0, kDoctype.size()) == kDoctype) {
          size_t name_begin = kDoctype.size();
          while (name_begin < i && IsXmlWhitespace(data[name_begin])) {
            ++name_begin;
          }
          size_t name_end = name_begin;
          while (name_end < i && IsNameChar(static_cast<unsigned char>(
                                     data[name_end]))) {
            ++name_end;
          }
          std::string_view subset =
              subset_end > subset_begin
                  ? data.substr(subset_begin, subset_end - subset_begin)
                  : std::string_view();
          handler_->OnDoctype(data.substr(name_begin, name_end - name_begin),
                              subset);
        }
        *consumed = i + 1;
        *progress = Progress::kOk;
        return Status::OK();
      }
    }
    // Still waiting for the closing '>'. The unconsumed declaration is
    // retained across Feeds, so an unterminated DOCTYPE would otherwise
    // grow pending_ without bound — the cap fails it as soon as the
    // retained prefix alone exceeds the budget. (The general
    // max_retained_markup cap in ParseBuffer covers every other markup
    // kind; DOCTYPE keeps its own, usually tighter, budget.)
    if (limits_.max_doctype_bytes != 0 &&
        data.size() > limits_.max_doctype_bytes) {
      return LimitErrorHere("declaration exceeds " +
                            std::to_string(limits_.max_doctype_bytes) +
                            " bytes");
    }
    return Status::OK();  // need more input
  }

  if (kind == '?') {
    size_t end = data.find("?>", 2);
    if (end == std::string_view::npos) return Status::OK();
    *consumed = end + 2;
    *progress = Progress::kOk;
    return Status::OK();
  }

  // Ordinary element start tag.
  bool saw_lt = false;
  size_t gt = FindTagEnd(data, &saw_lt);
  if (saw_lt) return ErrorHere("'<' inside element tag");
  if (gt == std::string_view::npos) return Status::OK();
  std::string_view body = data.substr(1, gt - 1);
  bool self_closing = !body.empty() && body.back() == '/';
  if (self_closing) body.remove_suffix(1);
  XSQ_RETURN_IF_ERROR(ParseElementTag(body, self_closing));
  *consumed = gt + 1;
  *progress = Progress::kOk;
  return Status::OK();
}

// ---------------------------------------------------------- scan loop

// Consumes one contiguous run of character data starting at *pos (which
// is not '<'). Structural bytes are found in 8/16-byte gulps; raw spans
// between them become (ideally zero-copy) text segments. On return *pos
// is either at a '<', at the end of the buffer, or at a held-back tail
// (an unterminated entity, or a ']' that may start a split "]]>").
Status SaxParser::ParseTextRun(std::string_view data, size_t* pos,
                               bool at_eof) {
  size_t seg_start = *pos;  // start of the unappended raw segment
  size_t scan = *pos;
  size_t run_decoded_bytes = 0;
  bool run_saw_reference = false;

  auto append_segment = [&](size_t end) {
    std::string_view raw = data.substr(seg_start, end - seg_start);
    AppendRawText(raw);
    run_decoded_bytes += raw.size();
  };

  while (true) {
    size_t stop = FindTextSpecial(data, scan);
    if (stop == std::string_view::npos) {
      // No structural byte to the end of the buffer: the whole tail is
      // plain text (and cannot contain ']', so no "]]>"-split concern).
      append_segment(data.size());
      *pos = data.size();
      break;
    }
    char c = data[stop];
    if (c == '<') {
      append_segment(stop);
      *pos = stop;
      break;
    }
    if (c == '&') {
      error_anchor_ = stop;  // errors below point at the '&'
      size_t semi = data.find(';', stop + 1);
      if (semi == std::string_view::npos) {
        if (data.size() - stop - 1 > 64) {
          // No terminator within any legal reference length: fail now
          // instead of retaining an ever-growing "&aaaa..." tail.
          return ErrorHere("entity reference too long");
        }
        if (at_eof) {
          return ErrorHere("unterminated entity reference");
        }
        append_segment(stop);  // hold the '&' back for the next chunk
        *pos = stop;
        break;
      }
      if (semi - stop - 1 > 64) {
        return ErrorHere("entity reference too long");
      }
      append_segment(stop);
      MaterializeText();
      size_t before = text_.size();
      XSQ_RETURN_IF_ERROR(
          AppendEntity(data.substr(stop + 1, semi - stop - 1), &text_));
      has_pending_text_ = true;
      run_decoded_bytes += text_.size() - before;
      run_saw_reference = true;
      // Trip the budget as soon as it is exceeded, not at run end: a
      // single buffer can hold an arbitrarily long reference flood.
      if (limits_.max_entity_expansion != 0 &&
          entity_expanded_bytes_ + run_decoded_bytes >
              limits_.max_entity_expansion) {
        return ChargeTextRun(run_decoded_bytes, true);
      }
      seg_start = scan = semi + 1;
      continue;
    }
    // c == ']': forbidden "]]>" detection (XML 1.0 §2.4). A lone ']' is
    // ordinary text and does not split the raw segment.
    if (data.size() - stop >= 3) {
      if (data.compare(stop, 3, "]]>") == 0) {
        error_anchor_ = stop;
        return ErrorHere("']]>' is not allowed in character data");
      }
      scan = stop + 1;
      continue;
    }
    if (at_eof) {
      scan = stop + 1;  // too short to ever become "]]>"
      continue;
    }
    // "]" or "]]" at the buffer edge: hold it back until the next chunk
    // decides whether it completes the forbidden sequence.
    append_segment(stop);
    *pos = stop;
    break;
  }
  error_anchor_ = *pos;  // a budget trip points at the end of the run
  return ChargeTextRun(run_decoded_bytes, run_saw_reference);
}

Status SaxParser::ParseBuffer(std::string_view data, size_t* consumed,
                              bool at_eof) {
  size_t pos = 0;
  buf_ = data;
  anchor_ = 0;
  if (!bom_checked_) {
    // A UTF-8 byte order mark may precede the document.
    if (!data.empty() && data[0] == '\xef') {
      if (data.size() < 3 && !at_eof) {
        *consumed = 0;
        buf_ = std::string_view();
        return Status::OK();  // wait for the full mark
      }
      if (data.substr(0, 3) == "\xef\xbb\xbf") {
        pos = 3;
        bytes_consumed_ += 3;
        anchor_ = 3;  // the mark occupies no line or column
      }
    }
    bom_checked_ = true;
  }
  error_anchor_ = anchor_;
  while (pos < data.size()) {
    if (data[pos] == '<') {
      size_t markup_consumed = 0;
      Progress progress = Progress::kNeedMore;
      error_anchor_ = pos;  // markup errors point at the '<'
      XSQ_RETURN_IF_ERROR(
          HandleMarkup(data.substr(pos), &markup_consumed, &progress));
      if (progress == Progress::kNeedMore) {
        if (at_eof) {
          return ErrorHere("unexpected end of document inside markup");
        }
        // The unconsumed construct is retained across Feeds; a comment,
        // CDATA section, PI or tag that never terminates would grow
        // pending_ without bound, so every markup kind is capped (the
        // DOCTYPE path additionally enforces its own budget above).
        if (limits_.max_retained_markup != 0 &&
            data.size() - pos > limits_.max_retained_markup) {
          return LimitErrorHere(
              "unterminated markup exceeds retained budget of " +
              std::to_string(limits_.max_retained_markup) + " bytes");
        }
        break;
      }
      pos += markup_consumed;
      continue;
    }

    if (open_elements_.empty()) {
      // Prolog/epilog: only whitespace may appear outside the root.
      const char* lt = static_cast<const char*>(
          memchr(data.data() + pos, '<', data.size() - pos));
      size_t run_end =
          lt == nullptr ? data.size() : static_cast<size_t>(lt - data.data());
      std::string_view raw = data.substr(pos, run_end - pos);
      if (!IsWhitespaceOnly(raw)) {
        error_anchor_ = pos;
        return ErrorHere("character data outside the root element");
      }
      pos = run_end;
      continue;
    }

    size_t before = pos;
    XSQ_RETURN_IF_ERROR(ParseTextRun(data, &pos, at_eof));
    if (pos < data.size() && data[pos] != '<') {
      break;  // held-back tail (entity or ']' split): need more input
    }
    if (pos == before && pos < data.size()) {
      break;  // no progress possible without more input
    }
  }
  SyncPosition(pos);
  buf_ = std::string_view();
  anchor_ = error_anchor_ = 0;
  *consumed = pos;
  return Status::OK();
}

Status SaxParser::Feed(std::string_view chunk) {
  XSQ_FAILPOINT("xml.parse.io_error", return InjectedIoError());
  if (finished_) {
    return Status::Internal("Feed called after Finish");
  }
  if (!document_begun_) {
    document_begun_ = true;
    handler_->OnDocumentBegin();
  }
  size_t consumed = 0;
  if (pending_.empty()) {
    XSQ_RETURN_IF_ERROR(ParseBuffer(chunk, &consumed, /*at_eof=*/false));
    // Direct text aliases `chunk`, which dies when Feed returns.
    if (text_state_ == TextState::kDirect) MaterializeText();
    pending_.assign(chunk.substr(consumed));
  } else {
    pending_.append(chunk);
    XSQ_RETURN_IF_ERROR(ParseBuffer(pending_, &consumed, /*at_eof=*/false));
    // Direct text aliases pending_, whose bytes shift in the erase below.
    if (text_state_ == TextState::kDirect) MaterializeText();
    pending_.erase(0, consumed);
  }
  return Status::OK();
}

Status SaxParser::Finish() {
  if (finished_) return Status::Internal("Finish called twice");
  if (!document_begun_) {
    document_begun_ = true;
    handler_->OnDocumentBegin();
  }
  size_t consumed = 0;
  XSQ_RETURN_IF_ERROR(ParseBuffer(pending_, &consumed, /*at_eof=*/true));
  if (text_state_ == TextState::kDirect) MaterializeText();
  pending_.erase(0, consumed);
  if (!pending_.empty()) {
    return ErrorHere("unexpected end of document inside markup");
  }
  if (!open_elements_.empty()) {
    return ErrorHere("unexpected end of document: element '<" +
                     std::string(open_elements_.back().name) +
                     ">' is not closed");
  }
  if (!seen_root_) {
    return ErrorHere("document has no root element");
  }
  finished_ = true;
  handler_->OnDocumentEnd();
  return Status::OK();
}

Status SaxParser::Parse(std::string_view document) {
  XSQ_RETURN_IF_ERROR(Feed(document));
  return Finish();
}

Status ParseFile(const std::string& path, SaxHandler* handler) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("cannot open file '" + path + "'");
  }
  SaxParser parser(handler);
  std::string buffer(1 << 20, '\0');
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    std::streamsize got = in.gcount();
    if (got <= 0) break;
    XSQ_RETURN_IF_ERROR(
        parser.Feed(std::string_view(buffer.data(), static_cast<size_t>(got))));
  }
  return parser.Finish();
}

}  // namespace xsq::xml
