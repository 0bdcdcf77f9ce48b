#ifndef SKETCHLINK_SIMD_SCORE_BATCH_H_
#define SKETCHLINK_SIMD_SCORE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

#include "simd/bit_profile.h"
#include "simd/jaro_pattern.h"

namespace sketchlink::simd {

/// Distance metric of a batch; each mirrors a scalar routing metric exactly.
enum class BatchMetric {
  /// 1 - text::JaroWinkler (the paper's evaluation metric).
  kJaroWinkler,
  /// 1 - text::QGramDice, over cached q-gram profiles.
  kQGramDice,
  /// Levenshtein / max(len) (text::NormalizedLevenshteinDistance).
  kLevenshtein,
};

/// One candidate of a batch: the representative's text plus, under
/// kQGramDice, its cached q-gram profile (required there). Jaro-Winkler
/// needs no candidate-side cache: the query carries the pattern.
struct BatchCandidate {
  std::string_view text;
  const BitProfile* profile = nullptr;
};

/// Structure-of-arrays batch: the candidates' texts concatenated into one
/// contiguous byte run with parallel offset/length arrays, plus a dense
/// profile array indexed by candidate position. This is the layout
/// the sketch publishes per representative set (core::RepSet::packed): the
/// scorer streams `text_lens` straight into the length-bound kernels with
/// no per-chunk gather, and every candidate access is a contiguous slice.
/// All pointers are borrowed; the backing storage must outlive the call.
struct BatchSoA {
  size_t count = 0;
  const char* text_bytes = nullptr;
  const uint32_t* text_offsets = nullptr;  ///< count entries into text_bytes
  const uint32_t* text_lens = nullptr;     ///< count entries, contiguous
  const BitProfile* profiles = nullptr;    ///< count entries (kQGramDice)

  std::string_view text(size_t i) const {
    return std::string_view(text_bytes + text_offsets[i], text_lens[i]);
  }
};

/// Outcome of scoring one query against a candidate array.
struct BatchResult {
  /// Index of the argmin candidate (first minimum in array order — the
  /// strict `<` update rule of SketchPolicy::ChooseSubBlock), or SIZE_MAX
  /// for an empty batch.
  size_t best_index = SIZE_MAX;
  double best_distance = std::numeric_limits<double>::infinity();
  /// Candidates whose exact distance was computed.
  uint32_t evaluated = 0;
  /// Candidates skipped because a lower bound already met or exceeded the
  /// running best. Pruning never changes best_index/best_distance: a bound
  /// b <= d with b >= best implies d >= best, which the scalar loop would
  /// also discard.
  uint32_t pruned = 0;
};

/// A query prepared for batch evaluation: per-query state (the Jaro
/// pattern under kJaroWinkler, the q-gram profile under kQGramDice) is
/// built once, then scored against all lambda*rho sub-block
/// representatives in one pass with length/signature early-exit pruning.
class BatchQuery {
 public:
  /// kJaroWinkler indexes `query` once (JaroWinklerQuery); kLevenshtein
  /// needs nothing beyond lengths. `query` must outlive the BatchQuery.
  BatchQuery(BatchMetric metric, std::string_view query);

  /// kQGramDice: `query_profile` must outlive the BatchQuery (the routing
  /// code builds it once per decision, like the legacy query_profile).
  BatchQuery(BatchMetric metric, std::string_view query,
             const BitProfile* query_profile);

  /// Exact distance to one candidate — the scalar reference value, bit for
  /// bit, computed by the kernels.
  double Distance(const BatchCandidate& candidate) const;

  /// Exact distance to candidate `i` of a SoA batch; same value as the
  /// gather path for the equivalent candidate.
  double Distance(const BatchSoA& soa, size_t i) const;

  /// Scores the query against candidates[0..n), returning the first-minimum
  /// argmin under the exact metric. Equivalent to calling Distance on every
  /// candidate with the `if (d < best)` update rule; bounds only skip
  /// candidates that provably cannot win.
  BatchResult Score(const BatchCandidate* candidates, size_t n) const;

  /// SoA variant with a carried running best: candidates whose bound meets
  /// or exceeds `initial_best` are pruned exactly as the flat path would
  /// prune them mid-array. Calling Score per sub-block with the previous
  /// sub-blocks' best threaded through is bit-identical (same evaluation
  /// order, same prune/evaluate decisions) to one flat Score over the
  /// concatenation — bounds never depend on the running best, only the
  /// prune comparison does.
  BatchResult Score(const BatchSoA& soa, double initial_best) const;

  BatchMetric metric() const { return metric_; }

 private:
  BatchMetric metric_;
  std::string_view query_;
  const BitProfile* query_profile_ = nullptr;
  JaroWinklerQuery jaro_winkler_;  // bound under kJaroWinkler only
};

}  // namespace sketchlink::simd

#endif  // SKETCHLINK_SIMD_SCORE_BATCH_H_
