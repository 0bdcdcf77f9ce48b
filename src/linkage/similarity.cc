#include "linkage/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "simd/kernels.h"
#include "text/monge_elkan.h"
#include "text/normalize.h"
#include "text/smith_waterman.h"

namespace sketchlink {

namespace {

// Parses a decimal number; false when the value is not fully numeric.
bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

}  // namespace

double CompareFieldValues(FieldComparatorKind kind, const std::string& a,
                          const std::string& b) {
  switch (kind) {
    case FieldComparatorKind::kJaroWinkler:
      // The bit-parallel kernel wrapper: == text::JaroWinkler bit for bit
      // (differentially tested), falling back to the scalar reference for
      // strings beyond the kernel limits.
      return simd::JaroWinkler(a, b);
    case FieldComparatorKind::kExact:
      return a == b ? 1.0 : 0.0;
    case FieldComparatorKind::kNumeric: {
      double value_a;
      double value_b;
      if (ParseNumber(a, &value_a) && ParseNumber(b, &value_b)) {
        const double denom =
            std::max({std::abs(value_a), std::abs(value_b), 1e-9});
        return std::max(0.0, 1.0 - std::abs(value_a - value_b) / denom);
      }
      return simd::JaroWinkler(a, b);  // non-numeric fallback
    }
    case FieldComparatorKind::kMongeElkan:
      return text::SymmetricMongeElkan(
          a, b, [](std::string_view x, std::string_view y) {
            return simd::JaroWinkler(x, y);
          });
    case FieldComparatorKind::kSmithWaterman:
      return text::SmithWatermanSimilarity(a, b);
  }
  return 0.0;
}

RecordSimilarity::RecordSimilarity(std::vector<int> match_fields,
                                   double threshold)
    : match_fields_(std::move(match_fields)), threshold_(threshold) {
  specs_.reserve(match_fields_.size());
  for (int field : match_fields_) {
    specs_.push_back(FieldSpec{field, FieldComparatorKind::kJaroWinkler,
                               1.0});
  }
}

RecordSimilarity::RecordSimilarity(std::vector<FieldSpec> fields,
                                   double threshold)
    : specs_(std::move(fields)), threshold_(threshold) {
  match_fields_.reserve(specs_.size());
  for (const FieldSpec& spec : specs_) {
    match_fields_.push_back(spec.field_index);
  }
}

double RecordSimilarity::Similarity(const Record& a, const Record& b) const {
  if (specs_.empty()) return 0.0;
  double total = 0.0;
  double total_weight = 0.0;
  for (const FieldSpec& spec : specs_) {
    const size_t index = static_cast<size_t>(spec.field_index);
    const std::string va =
        index < a.fields.size() ? text::NormalizeField(a.fields[index]) : "";
    const std::string vb =
        index < b.fields.size() ? text::NormalizeField(b.fields[index]) : "";
    total += spec.weight * CompareFieldValues(spec.comparator, va, vb);
    total_weight += spec.weight;
  }
  return total_weight <= 0 ? 0.0 : total / total_weight;
}

void SimilarityScorer::Bind(const RecordSimilarity& similarity,
                            const Record& query) {
  threshold_ = similarity.threshold();
  slice_count_ = 0;
  const std::vector<FieldSpec>& specs = similarity.field_specs();
  fields_.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    QueryField& field = fields_[i];
    field.spec = specs[i];
    field.value.clear();
    const size_t index = static_cast<size_t>(specs[i].field_index);
    slice_count_ = std::max(slice_count_, index + 1);
    if (index < query.fields.size()) {
      text::NormalizeFieldTo(query.fields[index], &field.value);
    }
    if (field.spec.comparator == FieldComparatorKind::kJaroWinkler) {
      field.indexed.Bind(field.value);
    }
  }
}

double SimilarityScorer::Compare(const QueryField& field,
                                 const std::string& candidate) {
  // JaroWinklerQuery == simd::JaroWinkler(query, candidate) bit for bit
  // (Jaro is symmetric), which is what CompareFieldValues returns.
  return field.spec.comparator == FieldComparatorKind::kJaroWinkler
             ? field.indexed.Similarity(candidate)
             : CompareFieldValues(field.spec.comparator, field.value,
                                  candidate);
}

template <typename FieldAt>
double SimilarityScorer::Score(const FieldAt& field_at,
                               std::string* scratch) const {
  // Mirrors RecordSimilarity::Similarity exactly (same accumulation order,
  // same empty-field conventions); only the query side is memoized. Each
  // candidate field is normalized into `scratch` (NormalizeFieldTo appends
  // the bytes NormalizeField returns), so the doubles match bit for bit.
  if (fields_.empty()) return 0.0;
  double total = 0.0;
  double total_weight = 0.0;
  for (const QueryField& field : fields_) {
    scratch->clear();
    const size_t index = static_cast<size_t>(field.spec.field_index);
    text::NormalizeFieldTo(field_at(index), scratch);
    total += field.spec.weight * Compare(field, *scratch);
    total_weight += field.spec.weight;
  }
  return total_weight <= 0 ? 0.0 : total / total_weight;
}

double SimilarityScorer::Similarity(const Record& candidate) const {
  std::string scratch;
  return Score(
      [&](size_t index) {
        return index < candidate.fields.size()
                   ? std::string_view(candidate.fields[index])
                   : std::string_view();
      },
      &scratch);
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
      scratch);
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
