#include "baselines/inv_index.h"

#include <algorithm>

#include "common/memory_tracker.h"
#include "simd/jaro_pattern.h"
#include "text/double_metaphone.h"
#include "text/normalize.h"

namespace sketchlink {

std::vector<std::string> InvIndexMatcher::FieldValues(
    const Record& record) const {
  std::vector<std::string> values;
  values.reserve(similarity_.match_fields().size());
  for (int field : similarity_.match_fields()) {
    const size_t index = static_cast<size_t>(field);
    if (index < record.fields.size()) {
      std::string value = text::NormalizeField(record.fields[index]);
      if (!value.empty()) values.push_back(std::move(value));
    }
  }
  return values;
}

std::string InvIndexMatcher::BucketCode(const std::string& value) {
  std::string code = text::DoubleMetaphonePrimary(value);
  if (code.empty()) {
    code = "#";
    code += value;  // exact bucket for non-phonetic (numeric) values
  }
  return code;
}

Status InvIndexMatcher::Insert(const Record& record,
                               const std::vector<std::string>& keys,
                               const std::string& key_values) {
  (void)keys;
  (void)key_values;
  SKETCHLINK_RETURN_IF_ERROR(store_->Put(record));
  for (const std::string& value : FieldValues(record)) {
    std::vector<RecordId>& postings = value_postings_[value];
    const bool first_sighting = postings.empty();
    postings.push_back(record.id);
    if (!first_sighting) continue;

    // New distinct value: pre-compute its similarity against every value
    // already sharing its Double Metaphone bucket (the scheme's core idea —
    // pay at insert time, look up at query time).
    const std::string code = BucketCode(value);
    std::vector<std::string>& bucket = code_buckets_[code];
    auto& row = sim_cache_[value];
    const simd::JaroWinklerQuery indexed(value);
    for (const std::string& other : bucket) {
      const double sim = indexed.Similarity(other);
      row[other] = sim;
      sim_cache_[other][value] = sim;
      ++build_comparisons_;
    }
    bucket.push_back(value);
  }
  return Status::OK();
}

Status InvIndexMatcher::ResolveInto(const Record& query,
                                    const KeyScratch& keys,
                                    QueryScratch* scratch) {
  (void)keys;
  const std::vector<std::string> query_values = FieldValues(query);

  // hits[id] counts how many query fields found a phonetically reachable
  // similar value on the record. A record is reported only when EVERY query
  // field did — the scheme has no other evidence that the record agrees on
  // that field, and a field whose Double Metaphone code was broken by a typo
  // contributes nothing (the recall weakness the paper attributes to INV).
  std::unordered_map<RecordId, size_t> hits;
  for (const std::string& value : query_values) {
    const std::string code = BucketCode(value);
    auto bucket_it = code_buckets_.find(code);
    if (bucket_it == code_buckets_.end()) continue;
    const auto row_it = sim_cache_.find(value);
    const auto* row = row_it == sim_cache_.end() ? nullptr : &row_it->second;
    // Best contribution of this query field per record.
    std::unordered_map<RecordId, double> field_best;
    const simd::JaroWinklerQuery indexed(value);
    for (const std::string& other : bucket_it->second) {
      double sim;
      if (value == other) {
        sim = 1.0;  // equality needs no similarity computation
      } else {
        const auto* entry = row == nullptr ? nullptr : [&] {
          auto it = row->find(other);
          return it == row->end() ? nullptr : &it->second;
        }();
        if (entry != nullptr) {
          sim = *entry;
          ++cache_hits_;
        } else {
          sim = indexed.Similarity(other);
          ++query_comparisons_;
        }
      }
      if (sim < options_.value_threshold) continue;
      auto postings_it = value_postings_.find(other);
      if (postings_it == value_postings_.end()) continue;
      for (RecordId id : postings_it->second) {
        double& best = field_best[id];
        best = std::max(best, sim);
      }
    }
    for (const auto& [id, best] : field_best) ++hits[id];
  }

  // The result set is the retrieval survivors: records every query field
  // could reach through its Double Metaphone bucket with a value similarity
  // above the floor, with no record-score cut over that (possibly
  // wrong-field) value evidence — phonetic grouping of non-matching values
  // therefore leaks false positives, and a single DM-broken field loses the
  // pair, the two weaknesses Sec. 7 attributes to INV.
  std::vector<RecordId>& matches = scratch->matches;
  matches.clear();
  for (const auto& [id, count] : hits) {
    if (count == query_values.size()) matches.push_back(id);
  }
  std::sort(matches.begin(), matches.end());
  return Status::OK();
}

size_t InvIndexMatcher::ApproximateMemoryUsage() const {
  size_t bytes = sizeof(*this);
  for (const auto& [code, bucket] : code_buckets_) {
    bytes += StringFootprint(code) + bucket.capacity() * sizeof(std::string);
    for (const std::string& value : bucket) bytes += StringHeapBytes(value);
  }
  for (const auto& [value, postings] : value_postings_) {
    bytes += StringFootprint(value) + postings.capacity() * sizeof(RecordId);
  }
  for (const auto& [value, row] : sim_cache_) {
    bytes += StringFootprint(value) + sizeof(row);
    for (const auto& [other, sim] : row) {
      bytes += StringFootprint(other) + sizeof(sim) + sizeof(void*) * 2;
    }
  }
  return bytes;
}

}  // namespace sketchlink
