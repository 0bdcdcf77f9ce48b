#include "simd/score_batch.h"

#include <algorithm>

#include "simd/kernels.h"

namespace sketchlink::simd {

BatchQuery::BatchQuery(BatchMetric metric, std::string_view query)
    : metric_(metric), query_(query) {
  if (metric == BatchMetric::kJaroWinkler) jaro_winkler_.Bind(query);
}

BatchQuery::BatchQuery(BatchMetric metric, std::string_view query,
                       const BitProfile* query_profile)
    : metric_(metric), query_(query), query_profile_(query_profile) {}

double BatchQuery::Distance(const BatchCandidate& candidate) const {
  switch (metric_) {
    case BatchMetric::kJaroWinkler:
      return 1.0 - jaro_winkler_.Similarity(candidate.text);
    case BatchMetric::kQGramDice:
      return ProfileDiceDistance(*query_profile_, *candidate.profile);
    case BatchMetric::kLevenshtein: {
      const size_t longest = std::max(query_.size(), candidate.text.size());
      if (longest == 0) return 0.0;
      return static_cast<double>(Levenshtein(query_, candidate.text)) /
             static_cast<double>(longest);
    }
  }
  return 0.0;
}

double BatchQuery::Distance(const BatchSoA& soa, size_t i) const {
  const std::string_view text = soa.text(i);
  switch (metric_) {
    case BatchMetric::kJaroWinkler:
      return 1.0 - jaro_winkler_.Similarity(text);
    case BatchMetric::kQGramDice:
      return ProfileDiceDistance(*query_profile_, soa.profiles[i]);
    case BatchMetric::kLevenshtein: {
      const size_t longest = std::max(query_.size(), text.size());
      if (longest == 0) return 0.0;
      return static_cast<double>(Levenshtein(query_, text)) /
             static_cast<double>(longest);
    }
  }
  return 0.0;
}

BatchResult BatchQuery::Score(const BatchSoA& soa, double initial_best) const {
  BatchResult result;
  result.best_distance = initial_best;

  constexpr size_t kChunk = 64;
  double bounds[kChunk];
  const bool length_bounds = metric_ != BatchMetric::kQGramDice;
  const uint32_t query_len = static_cast<uint32_t>(query_.size());

  for (size_t base = 0; base < soa.count; base += kChunk) {
    const size_t count = std::min(kChunk, soa.count - base);
    if (length_bounds) {
      // The SoA length array is already contiguous: no per-chunk gather.
      if (metric_ == BatchMetric::kJaroWinkler) {
        JwLengthBounds(query_len, soa.text_lens + base, count, bounds);
      } else {
        LevLengthBounds(query_len, soa.text_lens + base, count, bounds);
      }
    } else {
      for (size_t i = 0; i < count; ++i) {
        bounds[i] = DiceDistanceBound(*query_profile_, soa.profiles[base + i]);
      }
    }
    for (size_t i = 0; i < count; ++i) {
      if (bounds[i] >= result.best_distance) {
        ++result.pruned;
        continue;
      }
      const double d = Distance(soa, base + i);
      ++result.evaluated;
      if (d < result.best_distance) {
        result.best_distance = d;
        result.best_index = base + i;
      }
    }
  }
  return result;
}

BatchResult BatchQuery::Score(const BatchCandidate* candidates,
                              size_t n) const {
  BatchResult result;

  constexpr size_t kChunk = 64;
  uint32_t lens[kChunk];
  double bounds[kChunk];
  const bool length_bounds = metric_ != BatchMetric::kQGramDice;
  const uint32_t query_len = static_cast<uint32_t>(query_.size());

  for (size_t base = 0; base < n; base += kChunk) {
    const size_t count = std::min(kChunk, n - base);
    if (length_bounds) {
      for (size_t i = 0; i < count; ++i) {
        lens[i] = static_cast<uint32_t>(candidates[base + i].text.size());
      }
      if (metric_ == BatchMetric::kJaroWinkler) {
        JwLengthBounds(query_len, lens, count, bounds);
      } else {
        LevLengthBounds(query_len, lens, count, bounds);
      }
    } else {
      for (size_t i = 0; i < count; ++i) {
        bounds[i] =
            DiceDistanceBound(*query_profile_, *candidates[base + i].profile);
      }
    }
    for (size_t i = 0; i < count; ++i) {
      if (bounds[i] >= result.best_distance) {
        ++result.pruned;
        continue;
      }
      const double d = Distance(candidates[base + i]);
      ++result.evaluated;
      if (d < result.best_distance) {
        result.best_distance = d;
        result.best_index = base + i;
      }
    }
  }
  return result;
}

}  // namespace sketchlink::simd
