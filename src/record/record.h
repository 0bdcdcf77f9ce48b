#ifndef SKETCHLINK_RECORD_RECORD_H_
#define SKETCHLINK_RECORD_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sketchlink {

/// Identifier of a record inside its data set. Ground truth links a
/// perturbed record back to its source via entity_id.
using RecordId = uint64_t;

/// A flat, schema-less record: an id, the entity it was derived from, and
/// one string per field. Field meaning (names, blocking roles) lives in
/// Schema so records stay cheap to copy and serialize.
struct Record {
  RecordId id = 0;
  /// Records derived from the same real-world entity share this id; it is
  /// the ground truth used by recall/precision scoring and by the EO oracle.
  uint64_t entity_id = 0;
  std::vector<std::string> fields;

  /// Serializes to a compact binary string (for key/value store payloads).
  void EncodeTo(std::string* dst) const;

  /// Parses a record previously encoded with EncodeTo.
  static Result<Record> DecodeFrom(std::string_view* input);

  /// Heap + object footprint estimate.
  size_t ApproximateMemoryUsage() const;

  friend bool operator==(const Record& a, const Record& b) {
    return a.id == b.id && a.entity_id == b.entity_id && a.fields == b.fields;
  }
};

/// Zero-copy view of an encoded record. Wraps the EncodeTo wire bytes in
/// place: the header is parsed once, fields stay length-prefixed in the
/// underlying buffer and are sliced out on access without copying. Backed
/// by stable storage (RecordStore's arena), a view outlives concurrent
/// inserts — unlike views into a container that reallocates.
class RecordView {
 public:
  RecordView() = default;

  /// Parses the header of a payload produced by Record::EncodeTo. The view
  /// references `payload`'s bytes; the caller guarantees their lifetime.
  /// `fields_normalized` promises that every field already equals its
  /// text::NormalizeField form; RecordStore checks that once per record,
  /// at insert, and verification then scores the fields as they are.
  static Result<RecordView> FromEncoded(std::string_view payload,
                                        bool fields_normalized = false);

  bool valid() const { return num_fields_ != kInvalid; }
  RecordId id() const { return id_; }
  uint64_t entity_id() const { return entity_id_; }
  size_t num_fields() const { return num_fields_; }
  bool fields_normalized() const { return fields_normalized_; }

  /// The i-th field, sliced from the encoded bytes (no copy); empty past
  /// num_fields(). Fields are walked from the start of the field section,
  /// so access is O(i) — SliceFields reads several in one pass.
  std::string_view field(size_t i) const;

  /// Slices the first min(n, num_fields()) fields into out[0..) in one
  /// forward pass (no copy) and returns how many were written.
  size_t SliceFields(std::string_view* out, size_t n) const;

  /// Materializes an owning Record (copies every field).
  Record ToRecord() const;

 private:
  static constexpr uint32_t kInvalid = ~uint32_t{0};

  RecordId id_ = 0;
  uint64_t entity_id_ = 0;
  uint32_t num_fields_ = kInvalid;
  bool fields_normalized_ = false;
  std::string_view fields_;  // the length-prefixed field section
};

/// Names the fields of a data set and which of them participate in blocking
/// keys and in match comparisons.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::string> field_names)
      : field_names_(std::move(field_names)) {}

  size_t num_fields() const { return field_names_.size(); }
  const std::vector<std::string>& field_names() const { return field_names_; }

  /// Index of `name`, or -1 when absent.
  int FieldIndex(std::string_view name) const;

 private:
  std::vector<std::string> field_names_;
};

/// An in-memory data set: schema + records. The generators produce these and
/// the linkage pipelines consume them (either at once, or record-by-record
/// in streaming order).
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Record>& records() const { return records_; }
  std::vector<Record>& mutable_records() { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  void Add(Record record) { records_.push_back(std::move(record)); }
  const Record& operator[](size_t i) const { return records_[i]; }

  /// Writes the data set as CSV with a header row. Fields containing commas,
  /// quotes or newlines are quoted per RFC 4180.
  Status WriteCsv(const std::string& path) const;

  /// Reads a CSV written by WriteCsv (or any RFC-4180 CSV whose first two
  /// columns are numeric id and entity_id).
  static Result<Dataset> ReadCsv(const std::string& path);

 private:
  Schema schema_;
  std::vector<Record> records_;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_RECORD_RECORD_H_
