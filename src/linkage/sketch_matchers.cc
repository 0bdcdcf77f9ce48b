#include "linkage/sketch_matchers.h"

#include "common/memory_tracker.h"

namespace sketchlink {

Status CollectCandidates(ShardedSBlockSketch& sketch, const KeyScratch& keys,
                         std::vector<CandidateList>* groups) {
  // clear() drops the previous query's pins but keeps the vector capacity;
  // Candidates pins a published snapshot without allocating.
  groups->clear();
  if (groups->capacity() < keys.num_keys) groups->reserve(keys.num_keys);
  for (size_t i = 0; i < keys.num_keys; ++i) {
    Result<CandidateList> group =
        sketch.Candidates(keys.keys[i], keys.key_values);
    if (!group.ok()) return group.status();
    groups->push_back(std::move(*group));
  }
  return Status::OK();
}

namespace {

/// Shared resolution tail on the verified-query routine. In kSubBlock mode
/// the deduplicated sub-block members ARE the result set (paper Sec. 5
/// semantics, constant work per query). In kVerified mode only the members
/// scoring at or above the similarity threshold survive, in candidate
/// order. `comparisons` is bumped once with the query's total so concurrent
/// resolvers don't contend per member.
template <typename CandidateGroups>
Status FinishResolveInto(const Record& query, const CandidateGroups& candidates,
                         ResolveMode mode, const RecordSimilarity& similarity,
                         const RecordStore& store,
                         std::atomic<uint64_t>* comparisons,
                         QueryScratch* scratch) {
  const bool verify = mode == ResolveMode::kVerified;
  SKETCHLINK_RETURN_IF_ERROR(ResolveCandidates(query, candidates, verify,
                                               similarity, store, scratch));
  std::vector<RecordId>& matches = scratch->matches;
  if (!verify) {
    matches.assign(scratch->candidates.begin(), scratch->candidates.end());
    return Status::OK();
  }
  matches.clear();
  for (const ScoredMatch& match : scratch->scored) matches.push_back(match.id);
  if (!scratch->candidates.empty()) {
    comparisons->fetch_add(scratch->candidates.size(),
                           std::memory_order_relaxed);
  }
  return Status::OK();
}

/// Allocating wrapper over FinishResolveInto for the legacy Resolve path.
template <typename CandidateGroups>
Result<std::vector<RecordId>> FinishResolve(
    const Record& query, const CandidateGroups& candidates, ResolveMode mode,
    const RecordSimilarity& similarity, const RecordStore& store,
    std::atomic<uint64_t>* comparisons) {
  QueryScratch scratch;
  SKETCHLINK_RETURN_IF_ERROR(FinishResolveInto(
      query, candidates, mode, similarity, store, comparisons, &scratch));
  return std::move(scratch.matches);
}

/// Flattens a prepared batch into per-(key, record) sketch inserts, in batch
/// order. The pointers reference the batch, which outlives the call.
std::vector<SketchInsert> FlattenBatch(
    const std::vector<PreparedRecord>& batch) {
  size_t total = 0;
  for (const PreparedRecord& prepared : batch) total += prepared.keys.size();
  std::vector<SketchInsert> entries;
  entries.reserve(total);
  for (const PreparedRecord& prepared : batch) {
    for (const std::string& key : prepared.keys) {
      entries.push_back(
          SketchInsert{&key, &prepared.key_values, prepared.record->id});
    }
  }
  return entries;
}

}  // namespace

Status BlockSketchMatcher::Insert(const Record& record,
                                  const std::vector<std::string>& keys,
                                  const std::string& key_values) {
  SKETCHLINK_RETURN_IF_ERROR(store_->Put(record));
  for (const std::string& key : keys) {
    sketch_.Insert(key, key_values, record.id);
  }
  return Status::OK();
}

Status BlockSketchMatcher::InsertBatch(const std::vector<PreparedRecord>& batch,
                                       ThreadPool* pool) {
  // The record store is a plain hash map: fill it sequentially, then let the
  // striped sketch absorb the flattened batch in parallel.
  for (const PreparedRecord& prepared : batch) {
    SKETCHLINK_RETURN_IF_ERROR(store_->Put(*prepared.record));
  }
  sketch_.InsertBatch(FlattenBatch(batch), pool);
  return Status::OK();
}

Result<std::vector<RecordId>> BlockSketchMatcher::Resolve(
    const Record& query, const std::vector<std::string>& keys,
    const std::string& key_values) {
  std::vector<CandidateList> candidates;
  candidates.reserve(keys.size());
  for (const std::string& key : keys) {
    candidates.push_back(sketch_.Candidates(key, key_values));
  }
  return FinishResolve(query, candidates, mode_, similarity_, *store_,
                       &comparisons_);
}

Status BlockSketchMatcher::ResolveInto(const Record& query,
                                       const KeyScratch& keys,
                                       QueryScratch* scratch) {
  // clear() drops the previous query's pins but keeps the vector capacity;
  // Candidates pins a published snapshot without allocating.
  scratch->groups.clear();
  if (scratch->groups.capacity() < keys.num_keys) {
    scratch->groups.reserve(keys.num_keys);
  }
  for (size_t i = 0; i < keys.num_keys; ++i) {
    scratch->groups.push_back(sketch_.Candidates(keys.keys[i],
                                                 keys.key_values));
  }
  return FinishResolveInto(query, scratch->groups, mode_, similarity_, *store_,
                           &comparisons_, scratch);
}

Status SBlockSketchMatcher::Insert(const Record& record,
                                   const std::vector<std::string>& keys,
                                   const std::string& key_values) {
  SKETCHLINK_RETURN_IF_ERROR(store_->Put(record));
  for (const std::string& key : keys) {
    SKETCHLINK_RETURN_IF_ERROR(sketch_.Insert(key, key_values, record.id));
  }
  return Status::OK();
}

Status SBlockSketchMatcher::InsertBatch(
    const std::vector<PreparedRecord>& batch, ThreadPool* pool) {
  for (const PreparedRecord& prepared : batch) {
    SKETCHLINK_RETURN_IF_ERROR(store_->Put(*prepared.record));
  }
  return sketch_.InsertBatch(FlattenBatch(batch), pool);
}

Result<std::vector<RecordId>> SBlockSketchMatcher::Resolve(
    const Record& query, const std::vector<std::string>& keys,
    const std::string& key_values) {
  std::vector<CandidateList> candidates;
  candidates.reserve(keys.size());
  for (const std::string& key : keys) {
    auto group = sketch_.Candidates(key, key_values);
    if (!group.ok()) return group.status();
    candidates.push_back(std::move(*group));
  }
  return FinishResolve(query, candidates, mode_, similarity_, *store_,
                       &comparisons_);
}

Status SBlockSketchMatcher::ResolveInto(const Record& query,
                                        const KeyScratch& keys,
                                        QueryScratch* scratch) {
  SKETCHLINK_RETURN_IF_ERROR(
      CollectCandidates(sketch_, keys, &scratch->groups));
  return FinishResolveInto(query, scratch->groups, mode_, similarity_, *store_,
                           &comparisons_, scratch);
}

Status NaiveBlockMatcher::Insert(const Record& record,
                                 const std::vector<std::string>& keys,
                                 const std::string& key_values) {
  (void)key_values;
  SKETCHLINK_RETURN_IF_ERROR(store_->Put(record));
  for (const std::string& key : keys) {
    blocks_[key].push_back(record.id);
  }
  return Status::OK();
}

Result<std::vector<RecordId>> NaiveBlockMatcher::Resolve(
    const Record& query, const std::vector<std::string>& keys,
    const std::string& key_values) {
  (void)key_values;
  std::vector<std::vector<RecordId>> candidates;
  for (const std::string& key : keys) {
    auto it = blocks_.find(key);
    if (it != blocks_.end()) candidates.push_back(it->second);
  }
  // The naive scan always verifies: that is the linear baseline being
  // summarized away.
  return FinishResolve(query, candidates, ResolveMode::kVerified, similarity_,
                       *store_, &comparisons_);
}

size_t NaiveBlockMatcher::ApproximateMemoryUsage() const {
  size_t bytes = sizeof(*this);
  for (const auto& [key, members] : blocks_) {
    bytes += StringFootprint(key) + members.capacity() * sizeof(RecordId) +
             sizeof(void*) * 2;
  }
  return bytes;
}

}  // namespace sketchlink
