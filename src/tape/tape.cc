#include "tape/tape.h"

#include <cstdio>
#include <limits>

#include "common/crc32c.h"
#include "common/failpoints.h"

namespace xsq::tape {
namespace {

// Unsigned LEB128.
void PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

// Reads a varint from data[*pos...); false on truncation/overflow.
bool GetVarint(const uint8_t* data, size_t size, size_t* pos,
               uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < size && shift < 64) {
    uint8_t byte = data[(*pos)++];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace

void Tape::AppendDocumentBegin() {
  records_.push_back(static_cast<uint8_t>(Op::kDocumentBegin));
  ++event_count_;
}

void Tape::AppendDoctype(std::string_view name,
                         std::string_view internal_subset) {
  records_.push_back(static_cast<uint8_t>(Op::kDoctype));
  PutVarint(&records_, name.size());
  PutVarint(&records_, internal_subset.size());
  blob_.append(name);
  blob_.append(internal_subset);
  ++event_count_;
}

void Tape::AppendBegin(std::string_view tag,
                       const std::vector<xml::Attribute>& attributes,
                       int depth) {
  records_.push_back(static_cast<uint8_t>(Op::kBegin));
  PutVarint(&records_, symbols_.Intern(tag));
  PutVarint(&records_, static_cast<uint64_t>(depth));
  PutVarint(&records_, attributes.size());
  for (const xml::Attribute& attr : attributes) {
    PutVarint(&records_, symbols_.Intern(attr.name));
    PutVarint(&records_, attr.value.size());
    blob_.append(attr.value);
  }
  ++event_count_;
  ++stats_.begin_events;
  stats_.attribute_count += attributes.size();
}

void Tape::AppendBeginNoAttributes(std::string_view tag, int depth) {
  records_.push_back(static_cast<uint8_t>(Op::kBegin));
  PutVarint(&records_, symbols_.Intern(tag));
  PutVarint(&records_, static_cast<uint64_t>(depth));
  PutVarint(&records_, 0);
  ++event_count_;
  ++stats_.begin_events;
}

void Tape::AppendEnd(std::string_view tag, int depth) {
  records_.push_back(static_cast<uint8_t>(Op::kEnd));
  PutVarint(&records_, symbols_.Intern(tag));
  PutVarint(&records_, static_cast<uint64_t>(depth));
  ++event_count_;
  ++stats_.end_events;
}

void Tape::AppendText(std::string_view tag, std::string_view text,
                      int depth) {
  records_.push_back(static_cast<uint8_t>(Op::kText));
  PutVarint(&records_, symbols_.Intern(tag));
  PutVarint(&records_, static_cast<uint64_t>(depth));
  PutVarint(&records_, text.size());
  blob_.append(text);
  ++event_count_;
  ++stats_.text_events;
}

void Tape::AppendDocumentEnd() {
  records_.push_back(static_cast<uint8_t>(Op::kDocumentEnd));
  ++event_count_;
}

size_t Tape::memory_bytes() const {
  return records_.capacity() + blob_.capacity() + symbols_.memory_bytes() +
         sizeof(Tape);
}

Tape::Cursor::Cursor(const Tape& tape) : tape_(tape) {}

void Tape::Cursor::Rewind() {
  record_pos_ = 0;
  blob_pos_ = 0;
  status_ = Status::OK();
}

bool Tape::Cursor::Next(EventView* out) {
  if (!status_.ok() || record_pos_ >= tape_.records_.size()) return false;
  const uint8_t* rec = tape_.records_.data();
  const size_t rec_size = tape_.records_.size();
  const std::string& blob = tape_.blob_;

  auto fail = [this] {
    status_ = Status::DataCorruption("malformed tape record stream");
    return false;
  };
  auto take_span = [&](uint64_t len, std::string_view* span) {
    if (len > blob.size() - blob_pos_) return false;
    *span = std::string_view(blob).substr(blob_pos_, len);
    blob_pos_ += len;
    return true;
  };

  Op op = static_cast<Op>(rec[record_pos_++]);
  out->op = op;
  out->tag = SymbolTable::kInvalid;
  out->depth = 0;
  out->text = {};
  out->doctype_name = {};
  out->attributes = nullptr;

  switch (op) {
    case Op::kDocumentBegin:
    case Op::kDocumentEnd:
      return true;
    case Op::kDoctype: {
      uint64_t name_len = 0, subset_len = 0;
      if (!GetVarint(rec, rec_size, &record_pos_, &name_len) ||
          !GetVarint(rec, rec_size, &record_pos_, &subset_len) ||
          !take_span(name_len, &out->doctype_name) ||
          !take_span(subset_len, &out->text)) {
        return fail();
      }
      return true;
    }
    case Op::kBegin: {
      uint64_t tag = 0, depth = 0, nattrs = 0;
      if (!GetVarint(rec, rec_size, &record_pos_, &tag) ||
          !GetVarint(rec, rec_size, &record_pos_, &depth) ||
          !GetVarint(rec, rec_size, &record_pos_, &nattrs) ||
          tag >= tape_.symbols_.size()) {
        return fail();
      }
      out->tag = static_cast<SymbolId>(tag);
      out->depth = static_cast<int>(depth);
      attrs_.resize(static_cast<size_t>(nattrs));
      for (uint64_t i = 0; i < nattrs; ++i) {
        uint64_t name = 0, value_len = 0;
        if (!GetVarint(rec, rec_size, &record_pos_, &name) ||
            !GetVarint(rec, rec_size, &record_pos_, &value_len) ||
            name >= tape_.symbols_.size() ||
            !take_span(value_len, &attrs_[i].value)) {
          return fail();
        }
        attrs_[i].name = static_cast<SymbolId>(name);
      }
      out->attributes = &attrs_;
      return true;
    }
    case Op::kEnd: {
      uint64_t tag = 0, depth = 0;
      if (!GetVarint(rec, rec_size, &record_pos_, &tag) ||
          !GetVarint(rec, rec_size, &record_pos_, &depth) ||
          tag >= tape_.symbols_.size()) {
        return fail();
      }
      out->tag = static_cast<SymbolId>(tag);
      out->depth = static_cast<int>(depth);
      return true;
    }
    case Op::kText: {
      uint64_t tag = 0, depth = 0, text_len = 0;
      if (!GetVarint(rec, rec_size, &record_pos_, &tag) ||
          !GetVarint(rec, rec_size, &record_pos_, &depth) ||
          !GetVarint(rec, rec_size, &record_pos_, &text_len) ||
          tag >= tape_.symbols_.size() ||
          !take_span(text_len, &out->text)) {
        return fail();
      }
      out->tag = static_cast<SymbolId>(tag);
      out->depth = static_cast<int>(depth);
      return true;
    }
  }
  return fail();  // unknown opcode
}

namespace {

constexpr char kMagicV2[8] = {'X', 'S', 'Q', 'T', 'A', 'P', 'E', '2'};

// Little-endian CRC32C trailer appended after each v2 section.
void PutCrc(std::string* out, uint32_t crc) {
  out->push_back(static_cast<char>(crc & 0xff));
  out->push_back(static_cast<char>((crc >> 8) & 0xff));
  out->push_back(static_cast<char>((crc >> 16) & 0xff));
  out->push_back(static_cast<char>((crc >> 24) & 0xff));
}

uint32_t GetCrc(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void PutVarintString(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(value) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(static_cast<uint8_t>(value)));
}

bool GetVarintString(const std::string& data, size_t* pos, uint64_t* value) {
  return GetVarint(reinterpret_cast<const uint8_t*>(data.data()), data.size(),
                   pos, value);
}

}  // namespace

std::string Tape::SerializeHeaderBody() const {
  std::string header;
  PutVarintString(&header, symbols_.size());
  for (size_t i = 0; i < symbols_.size(); ++i) {
    std::string_view name = symbols_.Name(static_cast<SymbolId>(i));
    PutVarintString(&header, name.size());
    header.append(name);
  }
  const uint64_t counters[] = {
      event_count_,          stats_.begin_events,    stats_.end_events,
      stats_.text_events,    stats_.attribute_count, stats_.source_bytes,
      stats_.dropped_subtrees, stats_.dropped_text_events,
      stats_.dropped_attributes};
  for (uint64_t counter : counters) PutVarintString(&header, counter);
  PutVarintString(&header, records_.size());
  PutVarintString(&header, blob_.size());
  return header;
}

std::string Tape::Serialize() const {
  std::string out;
  std::string header = SerializeHeaderBody();
  out.reserve(sizeof(kMagicV2) + header.size() + records_.size() +
              blob_.size() + 12);
  out.append(kMagicV2, sizeof(kMagicV2));
  out.append(header);
  PutCrc(&out, Crc32c(header.data(), header.size()));
  out.append(reinterpret_cast<const char*>(records_.data()), records_.size());
  PutCrc(&out, Crc32c(records_.data(), records_.size()));
  out.append(blob_);
  PutCrc(&out, Crc32c(blob_.data(), blob_.size()));
  return out;
}

namespace {

Status WriteFile(const std::string& path, const std::string& image) {
  XSQ_FAILPOINT("tape.save.short_write",
                return Status::Internal("injected short write saving tape to " +
                                        path));
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  if ((!image.empty() &&
       std::fwrite(image.data(), 1, image.size(), file.get()) !=
           image.size()) ||
      std::fflush(file.get()) != 0) {
    return Status::Internal("short write saving tape to " + path);
  }
  return Status::OK();
}

}  // namespace

Status Tape::Save(const std::string& path) const {
  return WriteFile(path, Serialize());
}

Result<Tape> Tape::FromBytes(std::string data, const std::string& origin) {
  auto corrupt = [&origin](const char* what) {
    return Status::DataCorruption(std::string("corrupt tape file ") + origin +
                                  ": " + what);
  };
  if (data.size() < sizeof(kMagicV2) ||
      data.compare(0, sizeof(kMagicV2), kMagicV2, sizeof(kMagicV2)) != 0) {
    return corrupt("bad magic");
  }
  size_t pos = sizeof(kMagicV2);
  const size_t header_begin = pos;

  Tape tape;
  uint64_t symbol_count = 0;
  if (!GetVarintString(data, &pos, &symbol_count)) return corrupt("header");
  if (symbol_count > data.size()) return corrupt("symbol count");
  for (uint64_t i = 0; i < symbol_count; ++i) {
    uint64_t len = 0;
    if (!GetVarintString(data, &pos, &len) || len > data.size() - pos) {
      return corrupt("symbol table");
    }
    SymbolId id = tape.symbols_.Intern(std::string_view(data).substr(pos, len));
    pos += len;
    if (id != i) return corrupt("duplicate symbol");
  }
  uint64_t counters[9];
  for (uint64_t& counter : counters) {
    if (!GetVarintString(data, &pos, &counter)) return corrupt("counters");
  }
  tape.event_count_ = counters[0];
  tape.stats_.begin_events = counters[1];
  tape.stats_.end_events = counters[2];
  tape.stats_.text_events = counters[3];
  tape.stats_.attribute_count = counters[4];
  tape.stats_.source_bytes = counters[5];
  tape.stats_.dropped_subtrees = counters[6];
  tape.stats_.dropped_text_events = counters[7];
  tape.stats_.dropped_attributes = counters[8];

  uint64_t record_size = 0, blob_size = 0;
  if (!GetVarintString(data, &pos, &record_size) ||
      !GetVarintString(data, &pos, &blob_size)) {
    return corrupt("section sizes");
  }
  // The parsed header declares the section sizes; every section is
  // followed by its 4-byte CRC32C trailer.
  const size_t tail = data.size() - pos;  // bytes after the header body
  if (record_size > tail || tail - record_size < 12 ||
      blob_size != tail - record_size - 12) {
    return corrupt("section sizes");
  }
  if (Crc32c(data.data() + header_begin, pos - header_begin) !=
      GetCrc(data.data() + pos)) {
    return corrupt("header checksum mismatch");
  }
  const char* records = data.data() + pos + 4;
  if (Crc32c(records, record_size) != GetCrc(records + record_size)) {
    return corrupt("record section checksum mismatch");
  }
  const char* blob = records + record_size + 4;
  if (Crc32c(blob, blob_size) != GetCrc(blob + blob_size)) {
    return corrupt("blob section checksum mismatch");
  }
  tape.records_.assign(reinterpret_cast<const uint8_t*>(records),
                       reinterpret_cast<const uint8_t*>(records) + record_size);
  tape.blob_.assign(blob, blob_size);

  XSQ_RETURN_IF_ERROR(tape.Validate());
  return tape;
}

Result<Tape> Tape::Load(const std::string& path) {
  XSQ_FAILPOINT("tape.load.short_read",
                return Status::DataCorruption(
                    "injected short read loading tape from " + path));
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open tape file: " + path);
  }
  std::string data;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file.get())) > 0) {
    data.append(buffer, got);
  }
  if (std::ferror(file.get()) != 0) {
    return Status::Internal("read error loading tape from " + path);
  }
  return FromBytes(std::move(data), path);
}

Status Tape::Validate() const {
  Cursor cursor(*this);
  EventView event;
  uint64_t events = 0;
  int open_depth = 0;
  bool document_open = false;
  while (cursor.Next(&event)) {
    ++events;
    switch (event.op) {
      case Op::kDocumentBegin:
        if (document_open) return Status::ParseError("tape: nested document");
        document_open = true;
        break;
      case Op::kDoctype:
        break;
      case Op::kBegin:
        // Holds for projected tapes too: projection drops whole
        // subtrees, so every kept element's parent is kept and depths
        // stay contiguous (the engines insist on this).
        if (event.depth != open_depth + 1) {
          return Status::ParseError("tape: begin depth out of order");
        }
        open_depth = event.depth;
        break;
      case Op::kEnd:
        if (event.depth != open_depth || open_depth < 1) {
          return Status::ParseError("tape: unmatched end event");
        }
        open_depth = event.depth - 1;
        break;
      case Op::kText:
        if (event.depth != open_depth) {
          return Status::ParseError("tape: text outside its element");
        }
        break;
      case Op::kDocumentEnd:
        if (!document_open || open_depth != 0) {
          return Status::ParseError("tape: document end with open elements");
        }
        document_open = false;
        break;
    }
  }
  XSQ_RETURN_IF_ERROR(cursor.status());
  if (document_open || open_depth != 0) {
    return Status::ParseError("tape: truncated event stream");
  }
  if (events != event_count_) {
    return Status::ParseError("tape: event count mismatch");
  }
  return Status::OK();
}

}  // namespace xsq::tape
