#ifndef SKETCHLINK_SIMD_JARO_PATTERN_H_
#define SKETCHLINK_SIMD_JARO_PATTERN_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace sketchlink::simd {

/// Positional index of one comparison side of Jaro: for each distinct byte
/// of `b`, a 64-bit mask of the positions where it occurs. The bit-parallel
/// Jaro kernel replaces the scalar O(window) inner scan with one mask
/// lookup + ctz, replicating the scalar greedy matching exactly (lowest
/// unmatched position in the window wins).
///
/// `fits` is false when b is longer than 64 bytes or has more than
/// kMaxDistinct distinct bytes; callers then use the scalar text::Jaro.
/// Fixed arrays keep the pattern heap-free. At ~900B it is built once per
/// query side (JaroWinklerQuery), never stored per candidate.
struct JaroPattern {
  static constexpr size_t kMaxDistinct = 32;

  uint8_t length = 0;
  uint8_t num_distinct = 0;
  bool fits = false;
  /// True when `c & 63` is injective over the distinct bytes of b, so the
  /// peq table below answers lookups in O(1). Normalized field text
  /// (space, '#', '\'', '-', digits, upper letters) always qualifies:
  /// those bytes occupy distinct low-6-bit slots.
  bool direct = false;
  /// Distinct bytes of b in first-occurrence order (the first
  /// `num_distinct` slots) and the positions of each.
  std::array<unsigned char, kMaxDistinct> chars{};
  std::array<uint64_t, kMaxDistinct> masks{};
  /// Direct index (valid iff `direct`): slot c & 63 holds the byte that
  /// occupies it and the mask of its positions in b. A query byte that
  /// merely aliases the slot (same low 6 bits, different byte) is rejected
  /// by the stored-byte compare, so lookups stay exact for arbitrary input.
  std::array<unsigned char, 64> peq_char{};
  std::array<uint64_t, 64> peq{};
};

/// O(1) positional lookup through the direct table; caller must have
/// checked `pattern.direct`. Matches the first-occurrence slot scan
/// bit-for-bit: each slot's mask covers every occurrence of its byte.
inline uint64_t DirectPatternLookup(const JaroPattern& pattern,
                                    unsigned char c) {
  const size_t slot = c & 63u;
  return pattern.peq_char[slot] == c ? pattern.peq[slot] : 0;
}

/// Indexes `b`; sets fits=false (and leaves the arrays empty) when b does
/// not meet the kernel's limits.
void BuildJaroPattern(std::string_view b, JaroPattern* out);

/// The Winkler step of text::JaroWinkler (standard 0.1 prefix scale) on top
/// of the Jaro similarity of a and b. The common prefix is symmetric, so
/// the argument order does not matter. Out of line so that it compiles
/// under the kernel layer's -ffp-contract=off in every caller.
double WinklerBoost(double jaro, std::string_view a, std::string_view b);

/// Jaro-Winkler against one fixed query, indexed once. Jaro is symmetric
/// bit for bit (DESIGN.md §9), so the kernel indexes the query instead of
/// each candidate: scoring a candidate costs only the kernel scan, and
/// candidates need no pattern of their own. Verification binds one per
/// match field per query; routing one per decision (BatchQuery).
class JaroWinklerQuery {
 public:
  JaroWinklerQuery() = default;
  explicit JaroWinklerQuery(std::string_view query) { Bind(query); }

  /// Re-targets at `query` and indexes it. Borrows the bytes: they must
  /// stay in place while this object scores. A query the pattern cannot
  /// hold (> 64 bytes, > 32 distinct bytes) scores with text::Jaro.
  void Bind(std::string_view query);

  /// == text::Jaro(query, x), bit for bit.
  double Jaro(std::string_view x) const;

  /// == text::JaroWinkler(query, x), bit for bit.
  double Similarity(std::string_view x) const {
    return WinklerBoost(Jaro(x), query_, x);
  }

 private:
  std::string_view query_;
  JaroPattern pattern_;  // fits == false: score with text::Jaro
};

}  // namespace sketchlink::simd

#endif  // SKETCHLINK_SIMD_JARO_PATTERN_H_
