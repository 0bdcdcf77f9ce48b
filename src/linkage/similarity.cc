#include "linkage/similarity.h"

#include <algorithm>

#include "simd/kernels.h"
#include "text/normalize.h"

namespace sketchlink {

RecordSimilarity::RecordSimilarity(std::vector<int> match_fields,
                                   double threshold)
    : match_fields_(std::move(match_fields)), threshold_(threshold) {}

double RecordSimilarity::Similarity(const Record& a, const Record& b) const {
  if (match_fields_.empty()) return 0.0;
  double total = 0.0;
  for (int field : match_fields_) {
    const size_t index = static_cast<size_t>(field);
    const std::string va =
        index < a.fields.size() ? text::NormalizeField(a.fields[index]) : "";
    const std::string vb =
        index < b.fields.size() ? text::NormalizeField(b.fields[index]) : "";
    // The bit-parallel kernel wrapper: == text::JaroWinkler bit for bit
    // (differentially tested), falling back to the scalar reference for
    // strings beyond the kernel limits.
    total += simd::JaroWinkler(va, vb);
  }
  return total / static_cast<double>(match_fields_.size());
}

void SimilarityScorer::Bind(const RecordSimilarity& similarity,
                            const Record& query) {
  threshold_ = similarity.threshold();
  slice_count_ = 0;
  const std::vector<int>& match_fields = similarity.match_fields();
  fields_.resize(match_fields.size());
  for (size_t i = 0; i < match_fields.size(); ++i) {
    QueryField& field = fields_[i];
    field.index = static_cast<size_t>(match_fields[i]);
    field.value.clear();
    slice_count_ = std::max(slice_count_, field.index + 1);
    if (field.index < query.fields.size()) {
      text::NormalizeFieldTo(query.fields[field.index], &field.value);
    }
    field.indexed.Bind(field.value);
  }
}

template <typename FieldAt>
double SimilarityScorer::Score(const FieldAt& field_at, bool normalized,
                               std::string* scratch) const {
  // Mirrors RecordSimilarity::Similarity exactly (same accumulation order,
  // same empty-field conventions); only the query side is memoized. Unless
  // the candidate's fields are known to be normalized already, each is
  // normalized into `scratch` (NormalizeFieldTo appends the bytes
  // NormalizeField returns). JaroWinklerQuery == simd::JaroWinkler(query,
  // candidate) bit for bit (Jaro is symmetric), so the doubles match bit
  // for bit.
  if (fields_.empty()) return 0.0;
  double total = 0.0;
  for (const QueryField& field : fields_) {
    std::string_view value = field_at(field.index);
    if (!normalized) {
      scratch->clear();
      text::NormalizeFieldTo(value, scratch);
      value = *scratch;
    }
    total += field.indexed.Similarity(value);
  }
  return total / static_cast<double>(fields_.size());
}

double SimilarityScorer::Similarity(const Record& candidate) const {
  std::string scratch;
  return Score(
      [&](size_t index) {
        return index < candidate.fields.size()
                   ? std::string_view(candidate.fields[index])
                   : std::string_view();
      },
      /*normalized=*/false, &scratch);
}

double SimilarityScorer::Similarity(const RecordView& candidate,
                                    std::string* scratch) const {
  // One forward pass over the encoded fields instead of one walk from
  // field 0 per match field; a schema wider than the stack buffer reads
  // its far fields through field() (empty past the last field).
  constexpr size_t kSlices = 32;
  std::string_view slices[kSlices];
  const size_t sliced =
      candidate.SliceFields(slices, std::min(slice_count_, kSlices));
  return Score(
      [&](size_t index) {
        return index < sliced ? slices[index] : candidate.field(index);
      },
      candidate.fields_normalized(), scratch);
}

std::string RecordSimilarity::KeyValues(const Record& record) const {
  std::string out;
  for (size_t i = 0; i < match_fields_.size(); ++i) {
    if (i > 0) out.push_back('#');
    const size_t index = static_cast<size_t>(match_fields_[i]);
    if (index < record.fields.size()) {
      out.append(text::NormalizeField(record.fields[index]));
    }
  }
  return out;
}

}  // namespace sketchlink
