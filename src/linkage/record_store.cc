#include "linkage/record_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/memory_tracker.h"
#include "text/normalize.h"

namespace sketchlink {

namespace {

constexpr char kRawFields = 0;
constexpr char kNormalizedFields = 1;

// A record's arena entry: one flag byte, set when every field already
// equals its text::NormalizeField form, then the Record::EncodeTo bytes
// that the kv payload holds.
std::string MakeEntry(const Record& record) {
  const bool normalized =
      std::all_of(record.fields.begin(), record.fields.end(),
                  [](const std::string& field) {
                    return text::IsNormalized(field);
                  });
  std::string entry(1, normalized ? kNormalizedFields : kRawFields);
  record.EncodeTo(&entry);
  return entry;
}

std::string_view Payload(std::string_view entry) { return entry.substr(1); }

Result<RecordView> ViewOf(std::string_view entry) {
  return RecordView::FromEncoded(Payload(entry),
                                 entry[0] == kNormalizedFields);
}

}  // namespace

std::string RecordStore::DbKey(RecordId id) const {
  std::string key = "rec\x01";
  PutFixed64(&key, id);
  return key;
}

Status RecordStore::Put(const Record& record) {
  const std::string entry = MakeEntry(record);
  if (db_ != nullptr) {
    // Write through outside the lock: kv::Db synchronizes internally, and
    // holding our exclusive lock across its WAL fsync would serialize every
    // concurrent reader behind disk latency.
    SKETCHLINK_RETURN_IF_ERROR(db_->Put(DbKey(record.id), Payload(entry)));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  index_[record.id] = arena_.CopyString(entry);
  return Status::OK();
}

Result<Record> RecordStore::Get(RecordId id) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(id);
    if (it != index_.end()) {
      std::string_view input = Payload(it->second);
      return Record::DecodeFrom(&input);
    }
  }
  if (db_ != nullptr) {
    std::string encoded;
    SKETCHLINK_RETURN_IF_ERROR(db_->Get(DbKey(id), &encoded));
    std::string_view input(encoded);
    return Record::DecodeFrom(&input);
  }
  return Status::NotFound("record " + std::to_string(id));
}

Result<RecordView> RecordStore::GetView(RecordId id) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(id);
    if (it != index_.end()) return ViewOf(it->second);
  }
  if (db_ != nullptr) {
    // Read-through: a view must outlive this call, so the payload fetched
    // from the database is cached into the arena before wrapping it. The
    // entry is built as Put builds it, flag byte included.
    std::string encoded;
    SKETCHLINK_RETURN_IF_ERROR(db_->Get(DbKey(id), &encoded));
    std::string_view input(encoded);
    Result<Record> record = Record::DecodeFrom(&input);
    if (!record.ok()) return record.status();
    const std::string entry = MakeEntry(*record);
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto [it, inserted] = index_.try_emplace(id);
    if (inserted) it->second = arena_.CopyString(entry);
    return ViewOf(it->second);
  }
  return Status::NotFound("record " + std::to_string(id));
}

Status RecordStore::GetViews(std::span<const RecordId> ids,
                             std::vector<RecordView>* views) const {
  views->resize(ids.size());
  bool missed = false;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (size_t i = 0; i < ids.size(); ++i) {
      auto it = index_.find(ids[i]);
      if (it == index_.end()) {
        (*views)[i] = RecordView();  // invalid: resolved below
        missed = true;
        continue;
      }
      Result<RecordView> view = ViewOf(it->second);
      if (!view.ok()) return view.status();
      (*views)[i] = *view;
    }
  }
  if (!missed) return Status::OK();
  for (size_t i = 0; i < ids.size(); ++i) {
    if ((*views)[i].valid()) continue;
    Result<RecordView> view = GetView(ids[i]);
    if (!view.ok()) return view.status();
    (*views)[i] = *view;
  }
  return Status::OK();
}

size_t RecordStore::ApproximateMemoryUsage() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return sizeof(*this) + arena_.bytes_reserved() +
         index_.size() *
             (sizeof(RecordId) + sizeof(std::string_view) + sizeof(void*) * 2);
}

}  // namespace sketchlink
