// The bit-parallel similarity kernels, compiled once for the ISA baseline of
// the build. The double arithmetic below is written to match the scalar
// references in src/text expression for expression, and the library builds
// with -ffp-contract=off, so every kernel returns the reference's bits
// (tests/text/kernel_differential_test.cc).

#include "simd/kernels.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simd/bit_profile.h"
#include "simd/jaro_pattern.h"

namespace sketchlink::simd {
namespace {

// ---------------------------------------------------------------------------
// Myers/Hyyro bit-parallel Levenshtein.
// ---------------------------------------------------------------------------

/// Single-word variant: pattern length in [1, 64]. Column state is one pair
/// of bit vectors (VP/VN); each text character costs O(1) word ops instead
/// of an O(m) DP row.
size_t MyersWord(std::string_view pattern, std::string_view text) {
  const size_t m = pattern.size();
  uint64_t peq[256] = {};
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }
  const uint64_t top = uint64_t{1} << (m - 1);
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  size_t score = m;
  for (const char tc : text) {
    const uint64_t eq = peq[static_cast<unsigned char>(tc)];
    const uint64_t xv = eq | vn;
    const uint64_t xh = (((eq & vp) + vp) ^ vp) | eq;
    uint64_t ph = vn | ~(xh | vp);
    uint64_t mh = vp & xh;
    if (ph & top) {
      ++score;
    } else if (mh & top) {
      --score;
    }
    ph = (ph << 1) | 1;  // row-0 boundary D[0][j] = j: +1 enters from below
    mh <<= 1;
    vp = mh | ~(xv | ph);
    vn = ph & xv;
  }
  return score;
}

/// Blocked variant for patterns longer than 64 bytes. Blocks cover pattern
/// rows bottom-up; horizontal +-1 carries chain through bit 63 of each full
/// block. The last block may be partial: bits above (m-1)%64 hold garbage,
/// which is harmless because word additions only carry upward, and both the
/// score bit and the chained carry are read at or below real pattern rows.
size_t MyersBlocked(std::string_view pattern, std::string_view text) {
  const size_t m = pattern.size();
  const size_t num_blocks = (m + 63) / 64;
  std::vector<uint64_t> peq(num_blocks * 256, 0);
  for (size_t i = 0; i < m; ++i) {
    peq[(i / 64) * 256 + static_cast<unsigned char>(pattern[i])] |=
        uint64_t{1} << (i % 64);
  }
  std::vector<uint64_t> vp(num_blocks, ~uint64_t{0});
  std::vector<uint64_t> vn(num_blocks, 0);
  const uint64_t score_bit = uint64_t{1} << ((m - 1) % 64);
  const uint64_t carry_bit = uint64_t{1} << 63;
  size_t score = m;
  for (const char tc : text) {
    const unsigned char c = static_cast<unsigned char>(tc);
    int hin = 1;  // row-0 boundary
    for (size_t blk = 0; blk < num_blocks; ++blk) {
      uint64_t eq = peq[blk * 256 + c];
      const uint64_t pv = vp[blk];
      const uint64_t nv = vn[blk];
      const uint64_t xv = eq | nv;
      if (hin < 0) eq |= 1;
      const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      uint64_t ph = nv | ~(xh | pv);
      uint64_t mh = pv & xh;
      const uint64_t out_bit = (blk + 1 == num_blocks) ? score_bit : carry_bit;
      int hout = 0;
      if (ph & out_bit) {
        hout = 1;
      } else if (mh & out_bit) {
        hout = -1;
      }
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) {
        ph |= 1;
      } else if (hin < 0) {
        mh |= 1;
      }
      vp[blk] = mh | ~(xv | ph);
      vn[blk] = ph & xv;
      hin = hout;
    }
    score = static_cast<size_t>(static_cast<ptrdiff_t>(score) + hin);
  }
  return score;
}

}  // namespace

size_t Levenshtein(std::string_view a, std::string_view b) {
  const std::string_view pattern = a.size() <= b.size() ? a : b;
  const std::string_view text = a.size() <= b.size() ? b : a;
  if (pattern.empty()) return text.size();
  if (pattern.size() <= 64) return MyersWord(pattern, text);
  return MyersBlocked(pattern, text);
}

size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance) {
  const size_t diff =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (diff > max_distance) return max_distance + 1;
  const size_t d = Levenshtein(a, b);
  return d > max_distance ? max_distance + 1 : d;
}

// ---------------------------------------------------------------------------
// q-gram profile kernels.
// ---------------------------------------------------------------------------

namespace {

/// Sorted merge of two packed gram arrays: the multiset intersection size
/// (sum of min counts) and the number of distinct common grams.
void IntersectPacked(const uint64_t* ga, const uint32_t* ca, size_t na,
                     const uint64_t* gb, const uint32_t* cb, size_t nb,
                     uint64_t* multiset_common, uint64_t* distinct_common) {
  size_t i = 0;
  size_t j = 0;
  uint64_t common = 0;
  uint64_t dc = 0;
  while (i < na && j < nb) {
    if (ga[i] < gb[j]) {
      ++i;
    } else if (ga[i] > gb[j]) {
      ++j;
    } else {
      common += ca[i] < cb[j] ? ca[i] : cb[j];
      ++dc;
      ++i;
      ++j;
    }
  }
  *multiset_common = common;
  *distinct_common = dc;
}

/// Sorted multiset merge for wide (q > 7) profiles.
void IntersectWide(const BitProfile& a, const BitProfile& b,
                   uint64_t* multiset_common, uint64_t* distinct_common) {
  size_t i = 0;
  size_t j = 0;
  uint64_t common = 0;
  uint64_t dc = 0;
  const std::string* last = nullptr;
  while (i < a.wide.size() && j < b.wide.size()) {
    const int cmp = a.wide[i].compare(b.wide[j]);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      ++common;
      if (last == nullptr || *last != a.wide[i]) {
        ++dc;
        last = &a.wide[i];
      }
      ++i;
      ++j;
    }
  }
  *multiset_common = common;
  *distinct_common = dc;
}

void ProfileCommon(const BitProfile& a, const BitProfile& b,
                   uint64_t* multiset_common, uint64_t* distinct_common) {
  if (a.packed && b.packed) {
    IntersectPacked(a.grams.data(), a.counts.data(), a.grams.size(),
                    b.grams.data(), b.counts.data(), b.grams.size(),
                    multiset_common, distinct_common);
  } else if (!a.packed && !b.packed) {
    IntersectWide(a, b, multiset_common, distinct_common);
  } else {
    // Profiles built with different q never share grams.
    *multiset_common = 0;
    *distinct_common = 0;
  }
}

}  // namespace

double ProfileDiceDistance(const BitProfile& a, const BitProfile& b) {
  if (a.total == 0 && b.total == 0) return 0.0;
  if (a.total == 0 || b.total == 0) return 1.0;
  uint64_t common = 0;
  uint64_t distinct_common = 0;
  ProfileCommon(a, b, &common, &distinct_common);
  const double dice = 2.0 * static_cast<double>(common) /
                      static_cast<double>(a.total + b.total);
  return 1.0 - dice;
}

double ProfileJaccard(const BitProfile& a, const BitProfile& b) {
  if (a.distinct == 0 && b.distinct == 0) return 1.0;
  uint64_t common = 0;
  uint64_t distinct_common = 0;
  ProfileCommon(a, b, &common, &distinct_common);
  const uint64_t uni = a.distinct + b.distinct - distinct_common;
  return uni == 0 ? 1.0
                  : static_cast<double>(distinct_common) /
                        static_cast<double>(uni);
}

double DiceDistanceBound(const BitProfile& a, const BitProfile& b) {
  // Empty-profile conventions: the bound IS the exact distance.
  if (a.total == 0 && b.total == 0) return 0.0;
  if (a.total == 0 || b.total == 0) return 1.0;
  const uint64_t only_a =
      static_cast<uint64_t>(__builtin_popcountll(a.signature & ~b.signature));
  const uint64_t only_b =
      static_cast<uint64_t>(__builtin_popcountll(b.signature & ~a.signature));
  const uint64_t ub_a = a.total > only_a ? a.total - only_a : 0;
  const uint64_t ub_b = b.total > only_b ? b.total - only_b : 0;
  const uint64_t common_ub = ub_a < ub_b ? ub_a : ub_b;
  // Same expression shape as the exact distance with common <= common_ub and
  // an identical denominator, so the double bound never exceeds the double
  // distance (division and 1-x are monotone) — no slack needed.
  const double dice_ub = 2.0 * static_cast<double>(common_ub) /
                         static_cast<double>(a.total + b.total);
  return 1.0 - dice_ub;
}

// ---------------------------------------------------------------------------
// Bit-parallel Jaro.
// ---------------------------------------------------------------------------

namespace {

/// Positional mask of `c` through the first-occurrence slot scan; used when
/// the pattern has no direct table (bytes collide in their low 6 bits).
uint64_t PatternLookup(const JaroPattern& pattern, unsigned char c) {
  for (size_t s = 0; s < pattern.num_distinct; ++s) {
    if (pattern.chars[s] == c) return pattern.masks[s];
  }
  return 0;
}

}  // namespace

/// The scalar algorithm greedily matches a[i] to the lowest unmatched b[j]
/// inside the window; here the window scan collapses to
/// mask-lookup & window & ~matched, and the greedy pick is the lowest set
/// bit. The matched subsequences (and therefore the transposition count and
/// the final doubles) are identical to text::Jaro.
double Jaro(std::string_view a, std::string_view b,
            const JaroPattern& pattern) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const size_t len_a = a.size();
  const size_t len_b = b.size();  // == pattern.length, <= 64
  const size_t window = std::max<size_t>(std::max(len_a, len_b) / 2, 1) - 1;

  uint64_t matched_b = 0;
  // 65, not 64: the branchless commit below stores to matched_chars[matches]
  // even on a miss, and once every position of b is matched (matches == 64
  // with len_a still running) that dead store lands in the spare slot.
  unsigned char matched_chars[65];
  size_t matches = 0;
  // The window [i-window, i+window] slides one position per query char, so
  // the mask is maintained incrementally: admit bit hi as the upper edge
  // advances (until it runs off b), retire bit lo once i clears the window.
  // Identical to recomputing from shifts each round, without the shifts.
  uint64_t window_mask = (std::min(window + 1, len_b) >= 64)
                             ? ~uint64_t{0}
                             : (uint64_t{1} << std::min(window + 1, len_b)) - 1;
  size_t hi = std::min(window + 1, len_b);  // one past the window's top bit
  if (pattern.direct) {
    for (size_t i = 0; i < len_a; ++i) {
      const uint64_t cand =
          DirectPatternLookup(pattern, static_cast<unsigned char>(a[i])) &
          window_mask & ~matched_b;
      // Branchless match commit: cand & -cand is 0 when cand is 0, so the
      // OR is a no-op on a miss; the store lands in a slot that only
      // becomes live if `matches` advances. Whether a[i] matches is
      // data-dependent per character, so a branch here mispredicts often.
      matched_b |= cand & (~cand + 1);  // lowest unmatched position wins
      matched_chars[matches] = static_cast<unsigned char>(a[i]);
      matches += (cand != 0);
      if (hi < len_b) window_mask |= uint64_t{1} << hi++;
      if (i >= window) window_mask &= window_mask - 1;  // clear lowest bit
    }
  } else {
    for (size_t i = 0; i < len_a; ++i) {
      const uint64_t cand =
          PatternLookup(pattern, static_cast<unsigned char>(a[i])) &
          window_mask & ~matched_b;
      matched_b |= cand & (~cand + 1);
      matched_chars[matches] = static_cast<unsigned char>(a[i]);
      matches += (cand != 0);
      if (hi < len_b) window_mask |= uint64_t{1} << hi++;
      if (i >= window) window_mask &= window_mask - 1;
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  uint64_t rest = matched_b;
  size_t k = 0;
  while (rest != 0) {
    const int j = __builtin_ctzll(rest);
    rest &= rest - 1;
    if (static_cast<unsigned char>(b[static_cast<size_t>(j)]) !=
        matched_chars[k++]) {
      ++transpositions;
    }
  }

  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(len_a) + m / static_cast<double>(len_b) +
          (m - static_cast<double>(transpositions / 2)) / m) /
         3.0;
}

// ---------------------------------------------------------------------------
// Batched length bounds.
// ---------------------------------------------------------------------------

namespace {

/// Rounding slack for bounds whose double expression does not structurally
/// dominate the exact distance expression. Distances that matter differ at
/// >= 1e-3 scales; 1e-9 only forfeits pruning in exact-tie territory.
constexpr double kBoundSlack = 1e-9;

}  // namespace

void JwLengthBounds(uint32_t query_len, const uint32_t* lens, size_t n,
                    double* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t cl = lens[i];
    if (query_len == 0 || cl == 0) {
      // Exact by the Jaro empty conventions: d(e,e) = 0, d(e,x) = 1.
      out[i] = (query_len == cl) ? 0.0 : 1.0;
      continue;
    }
    const double mn =
        static_cast<double>(query_len < cl ? query_len : cl);
    const double mx =
        static_cast<double>(query_len < cl ? cl : query_len);
    // jaro <= (2 + mn/mx)/3 with m <= mn matches; the max 4-char Winkler
    // boost maps similarity s to 0.4 + 0.6s, so distance >= 0.2*(1-mn/mx).
    out[i] = 0.2 * (1.0 - mn / mx) - kBoundSlack;
  }
}

void LevLengthBounds(uint32_t query_len, const uint32_t* lens, size_t n,
                     double* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t cl = lens[i];
    const uint32_t mx = query_len > cl ? query_len : cl;
    const uint32_t diff = query_len > cl ? query_len - cl : cl - query_len;
    // Same denominator and expression shape as the exact normalized
    // distance with lev >= diff, so the double bound is dominated exactly.
    out[i] = mx == 0 ? 0.0
                     : static_cast<double>(diff) / static_cast<double>(mx);
  }
}

double JaroWinkler(std::string_view a, std::string_view b) {
  return JaroWinklerQuery(b).Similarity(a);
}

}  // namespace sketchlink::simd
