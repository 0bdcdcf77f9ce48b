#ifndef SKETCHLINK_SIMD_BIT_PROFILE_H_
#define SKETCHLINK_SIMD_BIT_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sketchlink::simd {

/// A q-gram multiset in kernel-friendly form: the distinct grams sorted
/// ascending with their multiplicities, plus a 64-bit signature (one hashed
/// bit per distinct gram) that powers the popcount prune bound of the
/// batched scorer.
///
/// Grams of width q <= 7 are packed into uint64 values (bytes left-aligned
/// big-endian, length in the low byte), so comparisons are integer
/// compares; the packing is injective and order-consistent, which makes
/// the merge kernels exact — ProfileDiceDistance / ProfileJaccard
/// (simd/kernels.h) equal 1 - text::QGramDice / text::QGramJaccard for
/// every input (differentially tested). Wider grams fall back to a sorted
/// string multiset and a string merge.
struct BitProfile {
  /// Distinct packed grams, ascending (packed mode, q <= 7).
  std::vector<uint64_t> grams;
  /// Multiplicity of grams[i] in the multiset.
  std::vector<uint32_t> counts;
  /// Sorted gram multiset for q > 7 (duplicates kept).
  std::vector<std::string> wide;
  /// One hashed bit per distinct gram; 0 for empty profiles.
  uint64_t signature = 0;
  /// Multiset size (sum of counts, or wide.size()).
  uint32_t total = 0;
  /// Number of distinct grams.
  uint32_t distinct = 0;
  /// True when the uint64 packing is in use.
  bool packed = true;

  bool empty() const { return total == 0; }

  /// Heap bytes held by the profile (for ApproximateMemoryUsage).
  size_t HeapBytes() const;
};

/// Builds the profile of `s` with the exact tokenization of text::QGrams
/// (same '#'/'$' padding convention, same short-string handling).
BitProfile MakeBitProfile(std::string_view s, size_t q, bool pad = true);

/// Signature bit of a packed gram (splitmix-style multiply, top 6 bits).
inline uint64_t SignatureBit(uint64_t packed_gram) {
  return uint64_t{1} << ((packed_gram * 0x9e3779b97f4a7c15ULL) >> 58);
}

}  // namespace sketchlink::simd

#endif  // SKETCHLINK_SIMD_BIT_PROFILE_H_
