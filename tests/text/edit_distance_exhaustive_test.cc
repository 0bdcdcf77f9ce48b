// Exhaustive small-alphabet audit of src/text/edit_distance.cc: EVERY pair
// of strings up to length 6 over {a,b} (and up to length 4 over {a,b,c}) is
// checked against naive full-matrix references — Levenshtein, the banded
// BoundedLevenshtein at every max_distance in [0, 8], and the DamerauOsa
// transposition recurrence. The band seal / threshold early-exit / adjacent
// transposition edges are exactly where banded DPs historically break, so
// this closes them by enumeration instead of sampling. The bit-parallel
// Myers kernels ride along: they must equal the naive matrix too.

#include "text/edit_distance.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simd/kernels.h"

namespace sketchlink::text {
namespace {

/// Textbook full-matrix Levenshtein; no rolling rows, no band, no early
/// exit — deliberately too slow and too simple to be wrong.
size_t NaiveLevenshtein(const std::string& a, const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<std::vector<size_t>> d(n + 1, std::vector<size_t>(m + 1));
  for (size_t i = 0; i <= n; ++i) d[i][0] = i;
  for (size_t j = 0; j <= m; ++j) d[0][j] = j;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] =
          std::min({d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost});
    }
  }
  return d[n][m];
}

/// Textbook full-matrix optimal string alignment (restricted
/// Damerau-Levenshtein).
size_t NaiveOsa(const std::string& a, const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<std::vector<size_t>> d(n + 1, std::vector<size_t>(m + 1));
  for (size_t i = 0; i <= n; ++i) d[i][0] = i;
  for (size_t j = 0; j <= m; ++j) d[0][j] = j;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] =
          std::min({d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[n][m];
}

/// All strings over the first `alphabet` lowercase letters with length in
/// [0, max_len], in length-then-lexicographic order.
std::vector<std::string> AllStrings(size_t alphabet, size_t max_len) {
  std::vector<std::string> out{""};
  size_t begin = 0;
  for (size_t len = 1; len <= max_len; ++len) {
    const size_t end = out.size();
    for (size_t s = begin; s < end; ++s) {
      for (size_t c = 0; c < alphabet; ++c) {
        out.push_back(out[s] + static_cast<char>('a' + c));
      }
    }
    begin = end;
  }
  return out;
}

void AuditAllPairs(size_t alphabet, size_t max_len) {
  const std::vector<std::string> strings = AllStrings(alphabet, max_len);
  size_t pairs = 0;
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      ++pairs;
      const size_t lev = NaiveLevenshtein(a, b);
      ASSERT_EQ(lev, Levenshtein(a, b)) << "\"" << a << "\" / \"" << b << "\"";
      ASSERT_EQ(NaiveOsa(a, b), DamerauOsa(a, b))
          << "\"" << a << "\" / \"" << b << "\"";
      ASSERT_EQ(lev, simd::Levenshtein(a, b))
          << "kernel \"" << a << "\" / \"" << b << "\"";
      // Contract: exact distance when <= max_distance, max_distance + 1
      // otherwise — for EVERY threshold, including 0 and values far past
      // the true distance.
      for (size_t max_distance = 0; max_distance <= 8; ++max_distance) {
        const size_t expected = lev <= max_distance ? lev : max_distance + 1;
        ASSERT_EQ(expected, BoundedLevenshtein(a, b, max_distance))
            << "\"" << a << "\" / \"" << b << "\" max=" << max_distance;
        ASSERT_EQ(expected, simd::BoundedLevenshtein(a, b, max_distance))
            << "kernel \"" << a << "\" / \"" << b
            << "\" max=" << max_distance;
      }
    }
  }
  // 2^0..2^6 sums to 127 strings -> 16129 pairs; the audit must have
  // actually enumerated them.
  ASSERT_EQ(pairs, strings.size() * strings.size());
}

TEST(EditDistanceExhaustiveTest, BinaryAlphabetUpToLengthSix) {
  // {a, b} maximizes repeated characters and adjacent transpositions — the
  // regime where the OSA recurrence and the Myers carry chain are stressed.
  AuditAllPairs(2, 6);
}

TEST(EditDistanceExhaustiveTest, TernaryAlphabetUpToLengthFour) {
  AuditAllPairs(3, 4);
}

TEST(EditDistanceExhaustiveTest, TranspositionEdgeCases) {
  // Hand-picked adjacent-transposition shapes around the d[i-2][j-2] + 1
  // branch: OSA may not reuse a transposed pair ("restricted" property).
  EXPECT_EQ(DamerauOsa("ab", "ba"), 1u);
  EXPECT_EQ(DamerauOsa("abc", "acb"), 1u);
  EXPECT_EQ(DamerauOsa("abcd", "badc"), 2u);
  // The classic OSA-vs-full-Damerau witness: full Damerau gives 2 ("ca" ->
  // "ac" -> "abc"), OSA must give 3 because edits may not cross a
  // transposed pair.
  EXPECT_EQ(DamerauOsa("ca", "abc"), 3u);
  // Same-character "transposition" must not double-count.
  EXPECT_EQ(DamerauOsa("aa", "aa"), 0u);
  EXPECT_EQ(DamerauOsa("aab", "aba"), 1u);
}

}  // namespace
}  // namespace sketchlink::text
