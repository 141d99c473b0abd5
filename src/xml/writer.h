// XML serialization: used by the engines' catchall output (queries with no
// output expression return whole elements), by the subtree-buffering
// baseline, and by the data generators.
#ifndef XSQ_XML_WRITER_H_
#define XSQ_XML_WRITER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "xml/events.h"

namespace xsq::xml {

// Appends `<tag name="value" ...>`: the one begin-tag format of every
// serialized element (engine element output, pub/sub, XmlWriter).
// Attribute values are escaped; the tag and names are written verbatim.
// `Attributes` is a list of Attribute or OwnedAttribute.
template <typename Attributes>
void AppendBeginTag(std::string* out, std::string_view tag,
                    const Attributes& attributes) {
  out->push_back('<');
  out->append(tag);
  for (const auto& attr : attributes) {
    out->push_back(' ');
    out->append(attr.name);
    out->append("=\"");
    out->append(XmlEscape(attr.value));
    out->push_back('"');
  }
  out->push_back('>');
}

// Appends `</tag>`.
inline void AppendEndTag(std::string* out, std::string_view tag) {
  out->append("</");
  out->append(tag);
  out->push_back('>');
}

// Incrementally builds a serialized XML fragment or document.
// Attribute values and text are escaped; tags are written verbatim.
class XmlWriter {
 public:
  XmlWriter() = default;

  // When true, elements are written one per line with two-space indent.
  explicit XmlWriter(bool pretty) : pretty_(pretty) {}

  void BeginElement(std::string_view tag,
                    const std::vector<Attribute>& attributes = {});
  void EndElement(std::string_view tag);
  void Text(std::string_view text);

  // Writes <tag>text</tag> in one call.
  void TextElement(std::string_view tag, std::string_view text);

  // Writes <!DOCTYPE name> or <!DOCTYPE name [subset]>. The subset is
  // written verbatim (it is raw DTD text, not character data).
  void Doctype(std::string_view name, std::string_view internal_subset);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }
  size_t size() const { return out_.size(); }
  void Clear() {
    out_.clear();
    depth_ = 0;
    needs_indent_ = false;
  }

 private:
  void Indent();

  std::string out_;
  bool pretty_ = false;
  int depth_ = 0;
  bool needs_indent_ = false;
};

// Serializes a recorded event sequence (a well-formed fragment) to text.
std::string SerializeEvents(const std::vector<Event>& events);

}  // namespace xsq::xml

#endif  // XSQ_XML_WRITER_H_
