#ifndef SKETCHLINK_BASELINES_INV_INDEX_H_
#define SKETCHLINK_BASELINES_INV_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "linkage/matcher.h"
#include "linkage/record_store.h"
#include "linkage/similarity.h"

namespace sketchlink {

/// Tuning knobs of the INV baseline.
struct InvOptions {
  /// Value-level similarity floor: bucket values closer than this to a query
  /// value contribute to candidate scores.
  double value_threshold = 0.72;
  /// Record-level acceptance threshold (the evaluation's theta' = 0.75).
  double record_threshold = 0.75;
};

/// INV — the similarity-aware inverted index of Christen, Gayler & Hawking
/// (CIKM'09), the paper's first baseline (Sec. 7.1). Field values are
/// encoded with Double Metaphone into a shared inverted index; similarities
/// between values that land in the same encoding bucket are PRE-computed at
/// insert time so that query-time matching is mostly cache lookups.
///
/// Two structural weaknesses the paper calls out are reproduced faithfully:
///  - all fields share one set of indexes, so a value match says nothing
///    about which field matched (hurts precision);
///  - Double Metaphone collapses differently-spelled values only when their
///    pronunciation survives the typo (hurts recall under perturbation).
class InvIndexMatcher : public OnlineMatcher {
 public:
  InvIndexMatcher(InvOptions options, RecordSimilarity similarity,
                  RecordStore* store)
      : options_(options),
        similarity_(std::move(similarity)),
        store_(store) {}

  Status Insert(const Record& record, const std::vector<std::string>& keys,
                const std::string& key_values) override;

  Status ResolveInto(const Record& query, const KeyScratch& keys,
                     QueryScratch* scratch) override;

  uint64_t comparisons() const override {
    return build_comparisons_ + query_comparisons_;
  }
  /// Value-pair similarities computed during the pre-computation phase.
  uint64_t build_comparisons() const { return build_comparisons_; }
  /// Value-pair similarities computed at query time (cache misses).
  uint64_t query_comparisons() const { return query_comparisons_; }
  /// Query-time similarity cache hits.
  uint64_t cache_hits() const { return cache_hits_; }

  size_t ApproximateMemoryUsage() const override;
  std::string name() const override { return "INV"; }

 private:
  /// Normalized match-field values of a record.
  std::vector<std::string> FieldValues(const Record& record) const;

  /// Bucket key of a value: its Double Metaphone code, or an exact-value
  /// bucket for values with no phonetic content (pure numbers encode to the
  /// empty string and would otherwise all collide in one giant bucket).
  static std::string BucketCode(const std::string& value);

  InvOptions options_;
  RecordSimilarity similarity_;
  RecordStore* store_;

  // Hash table 1: Double Metaphone code -> distinct values in that bucket.
  std::unordered_map<std::string, std::vector<std::string>> code_buckets_;
  // Hash table 2: original value -> ids of records carrying it (any field).
  std::unordered_map<std::string, std::vector<RecordId>> value_postings_;
  // Hash table 3: pre-computed similarities between co-bucketed values,
  // two-level to avoid composite-key allocations on the hot path.
  std::unordered_map<std::string, std::unordered_map<std::string, double>>
      sim_cache_;

  uint64_t build_comparisons_ = 0;
  uint64_t query_comparisons_ = 0;
  uint64_t cache_hits_ = 0;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_BASELINES_INV_INDEX_H_
