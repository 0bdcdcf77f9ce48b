#include "text/edit_distance.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"

namespace sketchlink::text {
namespace {

TEST(LevenshteinTest, ClassicCases) {
  EXPECT_EQ(Levenshtein("", ""), 0u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(Levenshtein("JONES", "KONES"), 1u);
  EXPECT_EQ(Levenshtein("same", "same"), 0u);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(Levenshtein("saturday", "sunday"),
            Levenshtein("sunday", "saturday"));
}

TEST(BoundedLevenshteinTest, AgreesWithExactWithinBound) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 5), 3u);
  EXPECT_EQ(BoundedLevenshtein("abc", "abc", 2), 0u);
  EXPECT_EQ(BoundedLevenshtein("abc", "abd", 2), 1u);
}

TEST(BoundedLevenshteinTest, ExceedingBoundReturnsBoundPlusOne) {
  EXPECT_EQ(BoundedLevenshtein("aaaa", "bbbb", 2), 3u);
  EXPECT_EQ(BoundedLevenshtein("abcdefgh", "x", 3), 4u);
}

TEST(BoundedLevenshteinTest, LengthGapShortCircuit) {
  EXPECT_EQ(BoundedLevenshtein("a", "abcdefghij", 3), 4u);
}

TEST(BoundedLevenshteinTest, PropertyMatchesExactOnRandomStrings) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string a;
    std::string b;
    const size_t len_a = rng.UniformUint64(12);
    const size_t len_b = rng.UniformUint64(12);
    for (size_t i = 0; i < len_a; ++i) {
      a.push_back(static_cast<char>('a' + rng.UniformUint64(4)));
    }
    for (size_t i = 0; i < len_b; ++i) {
      b.push_back(static_cast<char>('a' + rng.UniformUint64(4)));
    }
    const size_t exact = Levenshtein(a, b);
    for (size_t bound : {0u, 1u, 2u, 4u, 8u, 16u}) {
      const size_t bounded = BoundedLevenshtein(a, b, bound);
      if (exact <= bound) {
        EXPECT_EQ(bounded, exact) << a << " vs " << b << " bound " << bound;
      } else {
        EXPECT_GT(bounded, bound) << a << " vs " << b << " bound " << bound;
      }
    }
  }
}

TEST(DamerauOsaTest, TranspositionCostsOne) {
  EXPECT_EQ(DamerauOsa("ab", "ba"), 1u);
  EXPECT_EQ(DamerauOsa("JOHN", "JOHN"), 0u);
  EXPECT_EQ(DamerauOsa("JOHN", "JOHNN"), 1u);
  EXPECT_EQ(DamerauOsa("SMITH", "SMTIH"), 1u);  // Levenshtein would say 2
  EXPECT_EQ(Levenshtein("SMITH", "SMTIH"), 2u);
}

TEST(DamerauOsaTest, NeverExceedsLevenshtein) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    std::string a, b;
    for (size_t i = 0, n = rng.UniformUint64(10); i < n; ++i) {
      a.push_back(static_cast<char>('a' + rng.UniformUint64(3)));
    }
    for (size_t i = 0, n = rng.UniformUint64(10); i < n; ++i) {
      b.push_back(static_cast<char>('a' + rng.UniformUint64(3)));
    }
    EXPECT_LE(DamerauOsa(a, b), Levenshtein(a, b));
  }
}

// Triangle inequality is a metric property Levenshtein must satisfy; the
// sub-block ring logic of BlockSketch leans on distances behaving sanely.
class LevenshteinMetricProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LevenshteinMetricProperty, TriangleInequality) {
  auto [seed, alphabet] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  for (int trial = 0; trial < 200; ++trial) {
    std::string s[3];
    for (auto& str : s) {
      for (size_t i = 0, n = rng.UniformUint64(8); i < n; ++i) {
        str.push_back(static_cast<char>(
            'a' + rng.UniformUint64(static_cast<uint64_t>(alphabet))));
      }
    }
    const size_t ab = Levenshtein(s[0], s[1]);
    const size_t bc = Levenshtein(s[1], s[2]);
    const size_t ac = Levenshtein(s[0], s[2]);
    EXPECT_LE(ac, ab + bc);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphabets, LevenshteinMetricProperty,
                         ::testing::Values(std::make_tuple(1, 2),
                                           std::make_tuple(2, 3),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(4, 26)));

}  // namespace
}  // namespace sketchlink::text
