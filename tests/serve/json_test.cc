#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ios>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "obs/json.h"

namespace sketchlink::serve {
namespace {

// The snprintf/strtod number printer that AppendJsonNumber replaced, kept
// as the reference its output must match byte for byte.
std::string ReferenceNumber(double number) {
  if (number >= 0 && number <= 9007199254740992.0 &&
      number == std::floor(number)) {
    return std::to_string(static_cast<uint64_t>(number));
  }
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, number);
    if (std::strtod(buf, nullptr) == number) break;
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::Parse("null").value().is_null());
  EXPECT_TRUE(Json::Parse("true").value().bool_value());
  EXPECT_FALSE(Json::Parse("false").value().bool_value());
  EXPECT_DOUBLE_EQ(Json::Parse("3.5").value().number_value(), 3.5);
  EXPECT_DOUBLE_EQ(Json::Parse("-2e3").value().number_value(), -2000.0);
  EXPECT_EQ(Json::Parse("\"hi\"").value().string_value(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(Json::Parse(R"("a\"b\\c\/d\n\t")").value().string_value(),
            "a\"b\\c/d\n\t");
  EXPECT_EQ(Json::Parse("\"A\\u00e9\"").value().string_value(),
            "A\xc3\xa9");  // BMP escape -> UTF-8
}

TEST(JsonParseTest, NestedContainers) {
  const Result<Json> parsed =
      Json::Parse(R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  const Json* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_TRUE(a->array_items()[2].GetBool("b", false));
  EXPECT_TRUE(root.Find("c")->Find("d")->is_null());
}

TEST(JsonParseTest, MalformedInputsAreInvalidArgument) {
  // ("01" is tolerated: numbers go through strtod, which accepts leading
  // zeros — strictness there buys nothing for this plane.)
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
        "1.2.3", "{\"a\":1} trailing", "[1 2]", "nul", "1e999", "-1e999",
        "{\"theta\":1e999}", "[2e308]"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
}

TEST(JsonParseTest, DepthCapRejectsHostileNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
  std::string shallow(10, '[');
  shallow += std::string(10, ']');
  EXPECT_TRUE(Json::Parse(shallow).ok());
}

TEST(JsonDumpTest, RoundTripsCompactly) {
  Json object = Json::Object();
  object.Set("id", Json::Int(12345678901234ull));
  object.Set("name", Json::Str("a\"b"));
  object.Set("score", Json::Number(0.8));
  Json array = Json::Array();
  array.Append(Json::Bool(true));
  array.Append(Json::Null());
  object.Set("tags", std::move(array));
  EXPECT_EQ(object.Dump(),
            R"({"id":12345678901234,"name":"a\"b","score":0.8,"tags":[true,null]})");
}

TEST(JsonDumpTest, NumbersUseShortestRoundTrip) {
  EXPECT_EQ(Json::Number(0.8).Dump(), "0.8");
  EXPECT_EQ(Json::Number(0.1).Dump(), "0.1");
  EXPECT_EQ(Json::Int(0).Dump(), "0");
  EXPECT_EQ(Json::Int(9007199254740992ull).Dump(), "9007199254740992");
  // Round trip is exact even when the short form is unavailable.
  const double awkward = 0.1 + 0.2;
  EXPECT_DOUBLE_EQ(
      Json::Parse(Json::Number(awkward).Dump()).value().number_value(),
      awkward);
}

TEST(JsonDumpTest, NumberPrintingMatchesSnprintfReference) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 9007199254740992.0, 9007199254740994.0, 1e-5, 1e21, 0.1,
      0.8, 1.0 / 3.0, 0.1 + 0.2, -1.5, Limits::max(), -Limits::max(),
      Limits::min(), Limits::denorm_min(), Limits::min() / 3,
      -Limits::denorm_min(), Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(), -Limits::quiet_NaN()};
  // Every power of two and both its neighbours, either sign: %.16g at a
  // power of two need not read back, the formatter's one special case.
  for (int exp = -1074; exp <= 1023; ++exp) {
    const double power = std::ldexp(1.0, exp);
    for (const double value : {power, std::nextafter(power, 0.0),
                               std::nextafter(power, Limits::infinity())}) {
      values.push_back(value);
      values.push_back(-value);
    }
  }
  Rng rng(0xd0b1e);
  // Shortest forms of exactly 15, 16 and 17 digits. A 15-digit decimal
  // parses to a double whose shortest form has at most 15 digits; random
  // mantissas mostly need 16 or 17.
  const auto shortest_digits = [](double value) {
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::scientific)
                          .ptr;
    int digits = 0;
    for (const char* p = buf; p < end && *p != 'e'; ++p) {
      digits += *p >= '0' && *p <= '9' ? 1 : 0;
    }
    return digits;
  };
  size_t by_digits[18] = {};
  while (by_digits[15] < 20'000 || by_digits[16] < 20'000 ||
         by_digits[17] < 20'000) {
    char text[48];
    std::snprintf(text, sizeof(text), "%llue%d",
                  static_cast<unsigned long long>(
                      100'000'000'000'000ull +
                      rng.UniformUint64(900'000'000'000'000ull)),
                  static_cast<int>(rng.UniformIndex(60)) - 44);
    for (const double value :
         {std::strtod(text, nullptr),
          std::ldexp(1.0 + rng.NextDouble(),
                     static_cast<int>(rng.UniformIndex(200)) - 100)}) {
      const int digits = shortest_digits(value);
      if (digits < 15 || by_digits[digits] >= 20'000) continue;
      ++by_digits[digits];
      values.push_back(rng.CoinFlip() ? value : -value);
    }
  }
  // Negative integers (the integer path takes only non-negative ones), up
  // to 17 digits.
  values.push_back(-1e6);
  values.push_back(-155992972677320.0);
  for (int digits = 1; digits <= 17; ++digits) {
    uint64_t low = 1;
    for (int i = 1; i < digits; ++i) low *= 10;
    for (int i = 0; i < 1000; ++i) {
      values.push_back(-static_cast<double>(
          low + rng.UniformUint64(digits == 1 ? 9 : 9 * low)));
    }
  }
  // Decimal exponents either side of the switches between fixed and
  // exponent notation: X < -4, and X >= 15, 16 or 17 by digit count.
  for (const int exponent : {-5, -4, 14, 15, 16, 17}) {
    for (const char* mantissa :
         {"1", "1.5", "9.5", "1.23456789012345", "9.99999999999999",
          "1.234567890123456", "9.999999999999999", "1.2345678901234567",
          "9.9999999999999999"}) {
      char text[48];
      std::snprintf(text, sizeof(text), "%se%d", mantissa, exponent);
      values.push_back(std::strtod(text, nullptr));
      values.push_back(-std::strtod(text, nullptr));
    }
    for (int i = 0; i < 2000; ++i) {
      const double value =
          (1.0 + 9.0 * rng.NextDouble()) * std::pow(10.0, exponent);
      values.push_back(rng.CoinFlip() ? value : -value);
    }
  }
  for (int i = 0; i < 600'000; ++i) {
    values.push_back(FromBits(rng.NextUint64()));  // every class, NaNs too
  }
  for (int i = 0; i < 400'000; ++i) {
    switch (i % 4) {
      case 0: values.push_back(rng.NextDouble()); break;  // scores
      case 1: values.push_back(rng.UniformIndex(1001) / 1000.0); break;
      case 2:
        values.push_back(static_cast<double>(rng.UniformUint64(1ull << 54)));
        break;
      default:
        values.push_back(std::ldexp(rng.NextDouble() - 0.5,
                                    static_cast<int>(rng.UniformIndex(200)) -
                                        100));
    }
  }
  std::string out;
  for (const double value : values) {
    out.clear();
    obs::AppendJsonNumber(value, &out);
    ASSERT_EQ(out, ReferenceNumber(value)) << std::hexfloat << value;
  }
  EXPECT_EQ(Json::Number(Limits::infinity()).Dump(), "inf");
  EXPECT_EQ(Json::Number(-Limits::quiet_NaN()).Dump(), "-nan");
}

TEST(JsonDumpTest, ControlCharactersAreEscaped) {
  EXPECT_EQ(Json::Str("a\001b\nc").Dump(), "\"a\\u0001b\\nc\"");
  EXPECT_EQ(Json::Str("\x1f\"\\\b\f\r\t/").Dump(),
            "\"\\u001f\\\"\\\\\\b\\f\\r\\t/\"");
}

TEST(JsonAccessorsTest, TypedFallbacks) {
  const Json root =
      Json::Parse(R"({"n":5,"s":"x","b":true,"wrong":"nan"})").value();
  EXPECT_EQ(root.GetUint("n", 0), 5u);
  EXPECT_EQ(root.GetString("s", "d"), "x");
  EXPECT_TRUE(root.GetBool("b", false));
  EXPECT_EQ(root.GetUint("wrong", 9), 9u);     // wrong type -> fallback
  EXPECT_EQ(root.GetUint("absent", 9), 9u);
  EXPECT_EQ(root.GetString("n", "d"), "d");    // number is not a string
}

TEST(JsonParseTest, DuplicateKeysFirstWins) {
  const Json root = Json::Parse(R"({"k":1,"k":2})").value();
  EXPECT_EQ(root.GetUint("k", 0), 1u);
}

}  // namespace
}  // namespace sketchlink::serve
