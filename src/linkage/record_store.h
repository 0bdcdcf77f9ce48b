#ifndef SKETCHLINK_LINKAGE_RECORD_STORE_H_
#define SKETCHLINK_LINKAGE_RECORD_STORE_H_

#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "kv/db.h"
#include "record/record.h"

namespace sketchlink {

/// Id-addressed record storage. The paper keeps full records in a key/value
/// database and only ids inside the summarization structures; this store
/// mirrors that split. It can run purely in memory (default) or persist
/// through the embedded key/value store with a small write-through cache.
///
/// Payloads live as encoded bytes in an arena whose allocations never move
/// (blocks are chained, not reallocated), so GetView hands out zero-copy
/// RecordViews that stay valid for the store's lifetime — even across later
/// Puts. Storing Record objects in a container instead would either copy per
/// Get or dangle views when the container rehashes/reallocates.
///
/// Each arena entry leads with one flag byte: set when every field of the
/// record already equals its text::NormalizeField form (text::IsNormalized,
/// checked once at Put or at kv fault-in). The views the store hands out
/// carry it as RecordView::fields_normalized(), and SimilarityScorer then
/// scores the stored bytes without normalizing them. kv payloads are the
/// Record::EncodeTo bytes alone.
///
/// Thread-safe: Put takes an exclusive lock, Get/GetView/size/memory take a
/// shared one, so the serving plane can verify candidates on many query
/// threads while inserts land concurrently. (kv::Db is internally
/// synchronized.)
class RecordStore {
 public:
  /// In-memory store.
  RecordStore() = default;

  /// KV-backed store; `db` must outlive this object.
  explicit RecordStore(kv::Db* db) : db_(db) {}

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// Inserts (or overwrites) a record. Overwrites retire the previous
  /// payload's arena bytes only at store destruction (records are
  /// append-mostly in every pipeline here; repeated same-id overwrites
  /// accumulate until then).
  Status Put(const Record& record);

  /// Fetches an owning copy of a record by id; NotFound when absent.
  Result<Record> Get(RecordId id) const;

  /// Zero-copy view of a record's encoded payload. The view stays valid for
  /// the lifetime of the store (arena-backed; later Puts never move it),
  /// except that overwriting the same id makes older views of that id
  /// stale-but-safe (they keep showing the bytes they were opened on). On a
  /// KV-backed store, a miss in the in-memory index faults the payload in
  /// from the database and caches it in the arena.
  Result<RecordView> GetView(RecordId id) const;

  /// GetView for a whole candidate set: `(*views)[i]` is the view of
  /// `ids[i]`. Every in-memory hit is resolved under one shared lock
  /// instead of one lock per id (concurrent verifiers otherwise bounce the
  /// lock's cache line once per candidate); misses then go through GetView
  /// one by one. Fails with the first miss's status. Allocation-free once
  /// `views` has the capacity.
  Status GetViews(std::span<const RecordId> ids,
                  std::vector<RecordView>* views) const;

  /// Number of records stored (in-memory index size).
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return index_.size();
  }

  size_t ApproximateMemoryUsage() const;

 private:
  std::string DbKey(RecordId id) const;

  mutable std::shared_mutex mu_;
  kv::Db* db_ = nullptr;
  // Encoded payloads; mutable so the GetView read-through fault-in can
  // cache under an exclusive lock from a const method.
  mutable Arena arena_;
  // id -> arena entry (flag byte + encoded payload) inside arena_.
  // In-memory mode: the authoritative map. KV mode: a cache faithful about
  // writing through.
  mutable std::unordered_map<RecordId, std::string_view> index_;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_LINKAGE_RECORD_STORE_H_
