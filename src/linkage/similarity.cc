#include "linkage/similarity.h"

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
  const std::vector<FieldSpec>& specs = similarity.field_specs();
  fields_.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    QueryField& field = fields_[i];
    field.spec = specs[i];
    field.value.clear();
    const size_t index = static_cast<size_t>(specs[i].field_index);
    if (index < query.fields.size()) {
      text::NormalizeFieldTo(query.fields[index], &field.value);
    }
  }
}

double SimilarityScorer::Similarity(const Record& candidate) const {
  // Mirrors RecordSimilarity::Similarity exactly (same accumulation order,
  // same empty-field conventions); only the query-side normalization is
  // memoized.
  if (fields_.empty()) return 0.0;
  double total = 0.0;
  double total_weight = 0.0;
  for (const QueryField& field : fields_) {
    const size_t index = static_cast<size_t>(field.spec.field_index);
    const std::string vb =
        index < candidate.fields.size()
            ? text::NormalizeField(candidate.fields[index])
            : "";
    total += field.spec.weight *
             CompareFieldValues(field.spec.comparator, field.value, vb);
    total_weight += field.spec.weight;
  }
  return total_weight <= 0 ? 0.0 : total / total_weight;
}

double SimilarityScorer::Similarity(const RecordView& candidate,
                                    std::string* scratch) const {
  // Same accumulation order and empty-field conventions as the Record
  // overload; the candidate field is normalized into `scratch` instead of a
  // fresh string (NormalizeFieldTo appends byte-identical output), so the
  // doubles match bit for bit while a warm caller stays allocation-free.
  if (fields_.empty()) return 0.0;
  double total = 0.0;
  double total_weight = 0.0;
  for (const QueryField& field : fields_) {
    const size_t index = static_cast<size_t>(field.spec.field_index);
    scratch->clear();
    if (index < candidate.num_fields()) {
      text::NormalizeFieldTo(candidate.field(index), scratch);
    }
    total += field.spec.weight *
             CompareFieldValues(field.spec.comparator, field.value, *scratch);
    total_weight += field.spec.weight;
  }
  return total_weight <= 0 ? 0.0 : total / total_weight;
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
