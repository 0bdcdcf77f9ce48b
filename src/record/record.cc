#include "record/record.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/coding.h"
#include "common/memory_tracker.h"

namespace sketchlink {

void Record::EncodeTo(std::string* dst) const {
  PutVarint64(dst, id);
  PutVarint64(dst, entity_id);
  PutVarint32(dst, static_cast<uint32_t>(fields.size()));
  for (const std::string& field : fields) {
    PutLengthPrefixed(dst, field);
  }
}

Result<Record> Record::DecodeFrom(std::string_view* input) {
  Record record;
  uint32_t num_fields;
  if (!GetVarint64(input, &record.id) ||
      !GetVarint64(input, &record.entity_id) ||
      !GetVarint32(input, &num_fields)) {
    return Status::Corruption("truncated record header");
  }
  record.fields.reserve(num_fields);
  for (uint32_t i = 0; i < num_fields; ++i) {
    std::string_view field;
    if (!GetLengthPrefixed(input, &field)) {
      return Status::Corruption("truncated record field");
    }
    record.fields.emplace_back(field);
  }
  return record;
}

size_t Record::ApproximateMemoryUsage() const {
  size_t bytes = sizeof(*this) + fields.capacity() * sizeof(std::string);
  for (const std::string& field : fields) bytes += StringHeapBytes(field);
  return bytes;
}

Result<RecordView> RecordView::FromEncoded(std::string_view payload,
                                           bool fields_normalized) {
  RecordView view;
  uint32_t num_fields;
  if (!GetVarint64(&payload, &view.id_) ||
      !GetVarint64(&payload, &view.entity_id_) ||
      !GetVarint32(&payload, &num_fields)) {
    return Status::Corruption("truncated record header");
  }
  // Validate the field section up front so field() cannot fail later.
  std::string_view rest = payload;
  for (uint32_t i = 0; i < num_fields; ++i) {
    std::string_view field;
    if (!GetLengthPrefixed(&rest, &field)) {
      return Status::Corruption("truncated record field");
    }
  }
  view.num_fields_ = num_fields;
  view.fields_normalized_ = fields_normalized;
  view.fields_ = payload;
  return view;
}

std::string_view RecordView::field(size_t i) const {
  std::string_view rest = fields_;
  std::string_view field;
  for (size_t k = 0; k <= i; ++k) {
    if (!GetLengthPrefixed(&rest, &field)) return std::string_view();
  }
  return field;
}

size_t RecordView::SliceFields(std::string_view* out, size_t n) const {
  std::string_view rest = fields_;
  const size_t count = std::min<size_t>(n, num_fields_);
  for (size_t i = 0; i < count; ++i) GetLengthPrefixed(&rest, &out[i]);
  return count;
}

Record RecordView::ToRecord() const {
  Record record;
  record.id = id_;
  record.entity_id = entity_id_;
  record.fields.reserve(num_fields_);
  std::string_view rest = fields_;
  for (uint32_t i = 0; i < num_fields_; ++i) {
    std::string_view field;
    GetLengthPrefixed(&rest, &field);
    record.fields.emplace_back(field);
  }
  return record;
}

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < field_names_.size(); ++i) {
    if (field_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

// Appends one CSV cell, quoting when needed.
void AppendCsvCell(std::string* out, std::string_view cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) {
    out->append(cell);
    return;
  }
  out->push_back('"');
  for (char c : cell) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// Splits one CSV line already known to contain balanced quotes. Handles
// embedded commas/quotes; multi-line cells are not produced by WriteCsv and
// are rejected by the reader.
Result<std::vector<std::string>> ParseCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"') {
      if (!cell.empty()) {
        return Status::Corruption("quote inside unquoted CSV cell");
      }
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      cell.push_back(c);
    }
  }
  if (in_quotes) return Status::Corruption("unterminated CSV quote");
  cells.push_back(std::move(cell));
  return cells;
}

}  // namespace

Status Dataset::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  std::string line = "id,entity_id";
  for (const std::string& name : schema_.field_names()) {
    line.push_back(',');
    AppendCsvCell(&line, name);
  }
  line.push_back('\n');
  out << line;
  for (const Record& record : records_) {
    line.clear();
    line += std::to_string(record.id);
    line.push_back(',');
    line += std::to_string(record.entity_id);
    for (const std::string& field : record.fields) {
      line.push_back(',');
      AppendCsvCell(&line, field);
    }
    line.push_back('\n');
    out << line;
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Dataset> Dataset::ReadCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::Corruption("empty CSV: " + path);
  auto header = ParseCsvLine(line);
  if (!header.ok()) return header.status();
  if (header->size() < 2 || (*header)[0] != "id" ||
      (*header)[1] != "entity_id") {
    return Status::Corruption("CSV header must start with id,entity_id");
  }
  Schema schema(
      std::vector<std::string>(header->begin() + 2, header->end()));
  Dataset dataset(std::move(schema));
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto cells = ParseCsvLine(line);
    if (!cells.ok()) return cells.status();
    if (cells->size() != header->size()) {
      return Status::Corruption("CSV row width mismatch in " + path);
    }
    Record record;
    record.id = std::strtoull((*cells)[0].c_str(), nullptr, 10);
    record.entity_id = std::strtoull((*cells)[1].c_str(), nullptr, 10);
    record.fields.assign(cells->begin() + 2, cells->end());
    dataset.Add(std::move(record));
  }
  return dataset;
}

}  // namespace sketchlink
