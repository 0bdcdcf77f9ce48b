#include "linkage/sketch_matchers.h"

#include "common/memory_tracker.h"

namespace sketchlink {

template <Residency kResidency>
Status CollectCandidates(ShardedSketch<kResidency>& sketch,
                         const KeyScratch& keys,
                         std::vector<CandidateList>* groups) {
  // clear() drops the previous query's pins but keeps the vector capacity;
  // Candidates pins a published snapshot without allocating.
  groups->clear();
  if (groups->capacity() < keys.num_keys) groups->reserve(keys.num_keys);
  for (size_t i = 0; i < keys.num_keys; ++i) {
    if constexpr (kResidency == Residency::kBounded) {
      Result<CandidateList> group =
          sketch.Candidates(keys.keys[i], keys.key_values);
      if (!group.ok()) return group.status();
      groups->push_back(std::move(*group));
    } else {
      groups->push_back(sketch.Candidates(keys.keys[i], keys.key_values));
    }
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

template <Residency kResidency>
Status SketchMatcher<kResidency>::Insert(const Record& record,
                                         const std::vector<std::string>& keys,
                                         const std::string& key_values) {
  SKETCHLINK_RETURN_IF_ERROR(store_->Put(record));
  for (const std::string& key : keys) {
    if constexpr (kBounded) {
      SKETCHLINK_RETURN_IF_ERROR(sketch_.Insert(key, key_values, record.id));
    } else {
      sketch_.Insert(key, key_values, record.id);
    }
  }
  return Status::OK();
}

template <Residency kResidency>
Status SketchMatcher<kResidency>::InsertBatch(
    const std::vector<PreparedRecord>& batch, ThreadPool* pool) {
  // The record store takes the records sequentially, then the striped
  // sketch absorbs the flattened batch in parallel.
  for (const PreparedRecord& prepared : batch) {
    SKETCHLINK_RETURN_IF_ERROR(store_->Put(*prepared.record));
  }
  if constexpr (kBounded) {
    return sketch_.InsertBatch(FlattenBatch(batch), pool);
  } else {
    sketch_.InsertBatch(FlattenBatch(batch), pool);
    return Status::OK();
  }
}

template <Residency kResidency>
Status SketchMatcher<kResidency>::ResolveInto(const Record& query,
                                              const KeyScratch& keys,
                                              QueryScratch* scratch) {
  SKETCHLINK_RETURN_IF_ERROR(
      CollectCandidates(sketch_, keys, &scratch->groups));
  return FinishResolveInto(query, scratch->groups, mode_, similarity_, *store_,
                           &comparisons_, scratch);
}

template class SketchMatcher<Residency::kUnbounded>;
template class SketchMatcher<Residency::kBounded>;
template Status CollectCandidates(ShardedSketch<Residency::kUnbounded>&,
                                  const KeyScratch&,
                                  std::vector<CandidateList>*);
template Status CollectCandidates(ShardedSketch<Residency::kBounded>&,
                                  const KeyScratch&,
                                  std::vector<CandidateList>*);

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

Status NaiveBlockMatcher::ResolveInto(const Record& query,
                                      const KeyScratch& keys,
                                      QueryScratch* scratch) {
  std::vector<std::vector<RecordId>> candidates;
  for (size_t i = 0; i < keys.num_keys; ++i) {
    auto it = blocks_.find(keys.keys[i]);
    if (it != blocks_.end()) candidates.push_back(it->second);
  }
  // The naive scan always verifies: that is the linear baseline being
  // summarized away.
  return FinishResolveInto(query, candidates, ResolveMode::kVerified,
                           similarity_, *store_, &comparisons_, scratch);
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
