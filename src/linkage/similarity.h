#ifndef SKETCHLINK_LINKAGE_SIMILARITY_H_
#define SKETCHLINK_LINKAGE_SIMILARITY_H_

#include <string>
#include <vector>

#include "record/record.h"
#include "simd/jaro_pattern.h"

namespace sketchlink {

/// Record-pair similarity used by the matching phase of every method in the
/// evaluation (Sec. 5): the mean Jaro-Winkler similarity over the normalized
/// match fields, with threshold theta' = 0.75.
class RecordSimilarity {
 public:
  /// `match_fields` lists the compared field indexes, in scoring order (a
  /// field a record lacks compares as the empty string); `threshold` is
  /// theta'.
  RecordSimilarity(std::vector<int> match_fields, double threshold = 0.75);

  /// Mean Jaro-Winkler similarity over the match fields, in [0, 1]: the sum
  /// in field order divided by the field count; 0 with no match fields.
  double Similarity(const Record& a, const Record& b) const;

  /// True when Similarity(a, b) >= threshold.
  bool Matches(const Record& a, const Record& b) const {
    return Similarity(a, b) >= threshold_;
  }

  /// The '#'-joined normalized match-field values of a record — the "key
  /// values" BlockSketch measures distances on (footnote 7 of the paper).
  std::string KeyValues(const Record& record) const;

  double threshold() const { return threshold_; }
  const std::vector<int>& match_fields() const { return match_fields_; }

 private:
  std::vector<int> match_fields_;
  double threshold_;
};

/// Query-side-memoized similarity: RecordSimilarity::Similarity normalizes
/// BOTH records' fields on every call, so verifying one query against k
/// candidates re-normalizes the query k times. A scorer normalizes the
/// query's match fields once when bound, indexes each of them once
/// (simd::JaroWinklerQuery, so a candidate costs only the kernel scan), and
/// returns exactly RecordSimilarity::Similarity(query, candidate)
/// afterwards. The verified query routine keeps one per thread
/// and re-binds it to each query.
class SimilarityScorer {
 public:
  /// Unbound: scores 0 until Bind.
  SimilarityScorer() = default;

  SimilarityScorer(const RecordSimilarity& similarity, const Record& query) {
    Bind(similarity, query);
  }

  /// Not copyable: the bound Jaro-Winkler queries borrow the scorer's own
  /// normalized field values.
  SimilarityScorer(const SimilarityScorer&) = delete;
  SimilarityScorer& operator=(const SimilarityScorer&) = delete;

  /// Re-targets the scorer at `query` under `similarity`, reusing its
  /// buffers: re-binding under the same similarity allocates nothing once
  /// the normalized query fields fit the capacity earlier queries left.
  void Bind(const RecordSimilarity& similarity, const Record& query);

  /// == similarity.Similarity(query, candidate), bit for bit.
  double Similarity(const Record& candidate) const;

  /// == similarity.Matches(query, candidate).
  bool Matches(const Record& candidate) const {
    return Similarity(candidate) >= threshold_;
  }

  /// Zero-copy variant: scores an encoded record in place (no Record
  /// materialization), slicing its fields in one pass. A view whose
  /// fields_normalized() is set (RecordStore checked them at insert) is
  /// scored on its stored bytes; otherwise `scratch` holds each
  /// candidate-side normalized field between comparisons, so a warm caller
  /// never allocates. Either way the doubles are identical to
  /// Similarity(candidate.ToRecord()).
  double Similarity(const RecordView& candidate, std::string* scratch) const;

  bool Matches(const RecordView& candidate, std::string* scratch) const {
    return Similarity(candidate, scratch) >= threshold_;
  }

 private:
  struct QueryField {
    size_t index = 0;                // the record field compared
    std::string value;               // normalized query-side field value
    simd::JaroWinklerQuery indexed;  // bound to `value`
  };

  /// The mean over the match fields; `field_at(i)` is the candidate's raw
  /// field i (empty when it has none), already in NormalizeField form when
  /// `normalized`.
  template <typename FieldAt>
  double Score(const FieldAt& field_at, bool normalized,
               std::string* scratch) const;

  std::vector<QueryField> fields_;
  size_t slice_count_ = 0;  // 1 + the highest match-field index
  double threshold_ = 0.0;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_LINKAGE_SIMILARITY_H_
