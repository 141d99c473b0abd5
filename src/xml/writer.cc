#include "xml/writer.h"

#include "common/strings.h"

namespace xsq::xml {

void XmlWriter::Indent() {
  if (!pretty_) return;
  if (!out_.empty()) out_.push_back('\n');
  out_.append(static_cast<size_t>(depth_) * 2, ' ');
}

void XmlWriter::BeginElement(std::string_view tag,
                             const std::vector<Attribute>& attributes) {
  Indent();
  AppendBeginTag(&out_, tag, attributes);
  ++depth_;
  needs_indent_ = true;
}

void XmlWriter::EndElement(std::string_view tag) {
  --depth_;
  if (needs_indent_) {
    // The element had nested children; close on its own line.
    Indent();
  }
  AppendEndTag(&out_, tag);
  needs_indent_ = true;
}

void XmlWriter::Text(std::string_view text) {
  out_.append(XmlEscape(text));
  needs_indent_ = false;
}

void XmlWriter::TextElement(std::string_view tag, std::string_view text) {
  BeginElement(tag);
  Text(text);
  EndElement(tag);
}

void XmlWriter::Doctype(std::string_view name,
                        std::string_view internal_subset) {
  Indent();
  out_.append("<!DOCTYPE ");
  out_.append(name);
  if (!internal_subset.empty()) {
    out_.append(" [");
    out_.append(internal_subset);
    out_.append("]");
  }
  out_.push_back('>');
  needs_indent_ = true;
}

std::string SerializeEvents(const std::vector<Event>& events) {
  XmlWriter writer;
  for (const Event& event : events) {
    switch (event.type) {
      case Event::Type::kBegin:
        writer.BeginElement(event.tag, AttributeViews(event.attributes));
        break;
      case Event::Type::kEnd:
        writer.EndElement(event.tag);
        break;
      case Event::Type::kText:
        writer.Text(event.text);
        break;
      case Event::Type::kDoctype:
        writer.Doctype(event.tag, event.text);
        break;
      case Event::Type::kDocumentBegin:
      case Event::Type::kDocumentEnd:
        break;  // markers have no textual form
    }
  }
  return writer.TakeString();
}

}  // namespace xsq::xml
