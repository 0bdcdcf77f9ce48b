#include "text/normalize.h"

#include <cctype>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"

namespace sketchlink::text {
namespace {

// The locale-calling normalizer the byte table replaced, kept as the
// reference: std::isspace / std::toupper in the process locale, which is
// "C" since nothing calls setlocale.
std::string ReferenceNormalize(std::string_view s) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  std::string out;
  bool pending_space = false;
  for (const char raw : s) {
    if (space(raw)) {
      pending_space = !out.empty();
      continue;
    }
    const char up =
        static_cast<char>(std::toupper(static_cast<unsigned char>(raw)));
    const bool keep = (up >= 'A' && up <= 'Z') || (up >= '0' && up <= '9') ||
                      up == '\'' || up == '-';
    if (!keep) continue;
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(up);
  }
  return out;
}

TEST(NormalizeTest, UpperAndLower) {
  EXPECT_EQ(ToUpperAscii("Hello World"), "HELLO WORLD");
  EXPECT_EQ(ToLowerAscii("Hello World"), "hello world");
  EXPECT_EQ(ToUpperAscii(""), "");
}

TEST(NormalizeTest, Trim) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(NormalizeFieldTest, UppercasesAndCollapsesWhitespace) {
  EXPECT_EQ(NormalizeField("  john   smith "), "JOHN SMITH");
}

TEST(NormalizeFieldTest, DropsNoiseCharacters) {
  EXPECT_EQ(NormalizeField("O'Brien, Jr."), "O'BRIEN JR");
  EXPECT_EQ(NormalizeField("smith-jones"), "SMITH-JONES");
  EXPECT_EQ(NormalizeField("a\tb"), "A B");
  EXPECT_EQ(NormalizeField("@#$%"), "");
}

TEST(NormalizeFieldTest, KeepsDigits) {
  EXPECT_EQ(NormalizeField("123 Main St."), "123 MAIN ST");
}

TEST(NormalizeFieldTest, MatchesLocaleReferenceOnEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    for (const std::string& input :
         {std::string(1, c), "a" + std::string(1, c) + "b",
          std::string(1, c) + "x" + std::string(2, c)}) {
      EXPECT_EQ(NormalizeField(input), ReferenceNormalize(input))
          << "byte " << b;
    }
  }
}

TEST(NormalizeFieldTest, MatchesLocaleReferenceOnRandomStrings) {
  // Half the bytes come from a small alphabet of the interesting classes
  // (whitespace runs, case, kept punctuation), half from all 256 values.
  static constexpr char kAlphabet[] = " \t\n\v\f\razAZ09'-.,";
  Rng rng(0x5eed);
  std::string appended = "prefix";
  for (int i = 0; i < 200'000; ++i) {
    std::string input(rng.UniformIndex(24), '\0');
    for (char& c : input) {
      c = rng.UniformIndex(2) == 0
              ? kAlphabet[rng.UniformIndex(sizeof(kAlphabet) - 1)]
              : static_cast<char>(rng.UniformIndex(256));
    }
    const std::string expected = ReferenceNormalize(input);
    ASSERT_EQ(NormalizeField(input), expected) << i;
    appended.resize(6);
    NormalizeFieldTo(input, &appended);
    ASSERT_EQ(appended, "prefix" + expected) << i;
  }
}

TEST(IsNormalizedTest, AgreesWithNormalizeFieldOnEveryShortString) {
  // Every string of length <= 5 over one byte of each class the table
  // tells apart: kept upper case, folded lower case, digit, the two kept
  // punctuation marks, a dropped one, space, other whitespace and a byte
  // >= 0x80 (9^0 + ... + 9^5 = 66430 strings).
  static constexpr char kAlphabet[] = {'A', 'a', '0',  '\'',  '-',
                                       '.', ' ', '\t', '\x80'};
  constexpr size_t kSize = sizeof(kAlphabet);
  size_t normalized = 0;
  for (size_t length = 0; length <= 5; ++length) {
    size_t combinations = 1;
    for (size_t i = 0; i < length; ++i) combinations *= kSize;
    std::string s(length, '\0');
    for (size_t code = 0; code < combinations; ++code) {
      size_t rest = code;
      for (char& c : s) {
        c = kAlphabet[rest % kSize];
        rest /= kSize;
      }
      const bool expected = NormalizeField(s) == s;
      ASSERT_EQ(IsNormalized(s), expected) << '"' << s << '"';
      normalized += expected ? 1 : 0;
    }
  }
  // Both answers are exercised: the normalized strings are those over
  // {A, 0, ', -} with single inner spaces.
  EXPECT_GT(normalized, 1000u);
  EXPECT_LT(normalized, 66430u / 2);
}

TEST(IsNormalizedTest, RejectsWhatNormalizationChanges) {
  EXPECT_TRUE(IsNormalized(""));
  EXPECT_TRUE(IsNormalized("O'BRIEN-SMITH 27601"));
  EXPECT_FALSE(IsNormalized("Smith"));
  EXPECT_FALSE(IsNormalized(" SMITH"));
  EXPECT_FALSE(IsNormalized("SMITH "));
  EXPECT_FALSE(IsNormalized("MARY  ANN"));
  EXPECT_FALSE(IsNormalized("MARY\tANN"));
  EXPECT_FALSE(IsNormalized("ST."));
  EXPECT_FALSE(IsNormalized(std::string_view("A\0B", 3)));
}

TEST(PrefixTest, ClampsToLength) {
  EXPECT_EQ(Prefix("JOHNSON", 3), "JOH");
  EXPECT_EQ(Prefix("AB", 10), "AB");
  EXPECT_EQ(Prefix("", 5), "");
}

TEST(FractionPrefixTest, HalfTakesCeiling) {
  EXPECT_EQ(FractionPrefix("JOHNSON", 0.5), "JOHN");  // ceil(3.5) = 4
  EXPECT_EQ(FractionPrefix("ABCD", 0.5), "AB");
  EXPECT_EQ(FractionPrefix("A", 0.5), "A");  // at least one char
}

TEST(FractionPrefixTest, BoundaryFractions) {
  EXPECT_EQ(FractionPrefix("ABCD", 1.0), "ABCD");
  EXPECT_EQ(FractionPrefix("ABCD", 0.0), "");
  EXPECT_EQ(FractionPrefix("", 0.5), "");
}

}  // namespace
}  // namespace sketchlink::text
