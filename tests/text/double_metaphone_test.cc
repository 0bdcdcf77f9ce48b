#include "text/double_metaphone.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace sketchlink::text {
namespace {

TEST(DoubleMetaphoneTest, PaperExample) {
  // The paper's footnote: 'SMITH' and 'SMYTH' are both encoded as 'SM0'.
  EXPECT_EQ(DoubleMetaphonePrimary("SMITH"), "SM0");
  EXPECT_EQ(DoubleMetaphonePrimary("SMYTH"), "SM0");
  // Secondary acknowledges the Germanic pronunciation.
  EXPECT_EQ(DoubleMetaphone("SMITH").secondary, "XMT");
}

TEST(DoubleMetaphoneTest, CommonSurnames) {
  EXPECT_EQ(DoubleMetaphonePrimary("JOHNSON"), "JNSN");
  EXPECT_EQ(DoubleMetaphonePrimary("WILLIAMS"), "ALMS");
  EXPECT_EQ(DoubleMetaphonePrimary("JONES"), "JNS");
  EXPECT_EQ(DoubleMetaphonePrimary("MILLER"), "MLR");
  EXPECT_EQ(DoubleMetaphonePrimary("GARCIA"), "KRS");
  EXPECT_EQ(DoubleMetaphone("GARCIA").secondary, "KRX");
}

TEST(DoubleMetaphoneTest, SpellingVariantsCollide) {
  EXPECT_EQ(DoubleMetaphonePrimary("KATHERINE"),
            DoubleMetaphonePrimary("CATHERINE"));
  EXPECT_EQ(DoubleMetaphonePrimary("STEVEN") ==
                DoubleMetaphonePrimary("STEPHEN"),
            true);
  EXPECT_EQ(DoubleMetaphonePrimary("PHILIP"),
            DoubleMetaphonePrimary("FILIP"));
}

TEST(DoubleMetaphoneTest, SilentLeadingLetters) {
  EXPECT_EQ(DoubleMetaphonePrimary("KNIGHT")[0], 'N');
  EXPECT_EQ(DoubleMetaphonePrimary("PSYCHOLOGY")[0], 'S');
  EXPECT_EQ(DoubleMetaphonePrimary("WRIGHT")[0], 'R');
  EXPECT_EQ(DoubleMetaphonePrimary("GNOME")[0], 'N');
}

TEST(DoubleMetaphoneTest, InitialXEncodesAsS) {
  EXPECT_EQ(DoubleMetaphonePrimary("XAVIER")[0], 'S');
}

TEST(DoubleMetaphoneTest, VowelsOnlyAtStart) {
  EXPECT_EQ(DoubleMetaphonePrimary("AUBREY")[0], 'A');
  // Interior vowels vanish.
  EXPECT_EQ(DoubleMetaphonePrimary("EEEE"), "A");
}

TEST(DoubleMetaphoneTest, EmptyAndNonAlpha) {
  EXPECT_EQ(DoubleMetaphonePrimary(""), "");
  EXPECT_EQ(DoubleMetaphonePrimary("12345"), "");
  EXPECT_EQ(DoubleMetaphonePrimary("SMITH42"), "SM0");
}

TEST(DoubleMetaphoneTest, CaseInsensitive) {
  EXPECT_EQ(DoubleMetaphonePrimary("smith"), DoubleMetaphonePrimary("SMITH"));
}

TEST(DoubleMetaphoneTest, MaxLengthRespected) {
  const auto codes = DoubleMetaphone("SCHWARZENEGGER", 8);
  EXPECT_LE(codes.primary.size(), 8u);
  const auto short_codes = DoubleMetaphone("SCHWARZENEGGER", 4);
  EXPECT_LE(short_codes.primary.size(), 4u);
}

TEST(DoubleMetaphoneTest, PrimaryEqualsSecondaryForUnambiguousWords) {
  const auto codes = DoubleMetaphone("MILLER");
  EXPECT_EQ(codes.primary, codes.secondary);
}

TEST(DoubleMetaphoneTest, ThRendersTheta) {
  EXPECT_EQ(DoubleMetaphonePrimary("THIN")[0], '0');
  // Germanic contexts keep the T.
  EXPECT_EQ(DoubleMetaphonePrimary("THOMAS")[0], 'T');
}

class MetaphoneStability : public ::testing::TestWithParam<const char*> {};

TEST_P(MetaphoneStability, NonEmptyAndIdempotentInput) {
  const std::string word = GetParam();
  const auto codes = DoubleMetaphone(word);
  EXPECT_FALSE(codes.primary.empty()) << word;
  // Encoding is a pure function.
  EXPECT_EQ(codes.primary, DoubleMetaphone(word).primary);
}

INSTANTIATE_TEST_SUITE_P(
    Names, MetaphoneStability,
    ::testing::Values("SMITH", "JOHNSON", "WILLIAMS", "BROWN", "JONES",
                      "GARCIA", "RODRIGUEZ", "MARTINEZ", "HERNANDEZ",
                      "LOPEZ", "GONZALEZ", "WILSON", "ANDERSON", "THOMAS",
                      "TAYLOR", "MOORE", "JACKSON", "MARTIN", "LEE",
                      "PEREZ", "THOMPSON", "WHITE", "HARRIS", "SANCHEZ",
                      "CLARK", "RAMIREZ", "LEWIS", "ROBINSON", "WALKER",
                      "YOUNG", "ALLEN", "KING", "WRIGHT", "SCOTT",
                      "TORRES", "NGUYEN", "HILL", "FLORES", "GREEN",
                      "ADAMS", "NELSON", "BAKER", "HALL", "RIVERA",
                      "CAMPBELL", "MITCHELL", "CZERNY", "SCHMIDT",
                      "WICZ", "CAESAR", "CHIANTI", "MICHAEL", "GHISLANE",
                      "HUGH", "LAUGH", "MCLAUGHLIN", "EDGE", "EDGAR",
                      "JOSE", "CABRILLO", "DUMB", "RASPBERRY",
                      "SUGAR", "ISLAND", "SCHOOL", "SCHERMERHORN",
                      "TION", "THAMES", "ZHAO", "BREAUX", "ARNOW",
                      "FILIPOWICZ"));

}  // namespace
}  // namespace sketchlink::text
