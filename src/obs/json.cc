#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

namespace sketchlink::obs {

void AppendJsonString(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t plain = 0;  // start of the run of bytes copied verbatim
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char escaped[] = {'\\', 'u',          '0',
                                '0',  kHex[c >> 4], kHex[c & 0xF]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
  out->append(s.data() + plain, s.size() - plain);
  out->push_back('"');
}

namespace {

// The first of %.15g, %.16g, %.17g that reads back as `value`.
// to_chars with a precision prints what printf("%.*g") prints in the C
// locale, inf and nan included.
char* PrintFirstRoundTrip(double value, char* first, char* last) {
  char* end = first;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(first, last, value, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0;
    if (std::from_chars(first, end, parsed).ec == std::errc() &&
        parsed == value) {
      break;
    }
  }
  return end;
}

}  // namespace

void AppendJsonNumber(double value, std::string* out) {
  char buf[32];
  // Integers in the exactly-representable range print as integers so
  // record ids survive a JSON round trip byte-identically.
  if (value >= 0 && value <= 9007199254740992.0 &&
      value == std::floor(value)) {
    char* end =
        std::to_chars(buf, buf + sizeof(buf), static_cast<uint64_t>(value))
            .ptr;
    out->append(buf, end);
    return;
  }
  if (std::fpclassify(value) != FP_NORMAL) {
    out->append(buf, PrintFirstRoundTrip(value, buf, buf + sizeof(buf)));
    return;
  }
  // One shortest conversion, "[-]d[.ddd]e±XX": the digits D (P of them)
  // and the decimal exponent X. For a normal double, %.{max(15, P)}g
  // rounds to D padded with zeros, which it strips again, so the first
  // precision of the loop above that reads back is max(15, P) and its
  // output is D laid out as %g lays it out. The exception is P = 16 at a
  // power of two: the round-trip interval there is twice as wide above the
  // value as below, so %.16g may round to a neighbour of D that reads back
  // as another double.
  char* const sci_end =
      std::to_chars(buf, buf + sizeof(buf), value,
                    std::chars_format::scientific)
          .ptr;
  const bool negative = buf[0] == '-';
  const char* p = buf + (negative ? 1 : 0);
  char digits[17];
  int num_digits = 0;
  digits[num_digits++] = *p++;
  if (*p == '.') {
    for (++p; *p != 'e'; ++p) digits[num_digits++] = *p;
  }
  int exponent = 0;
  for (const char* e = p + 2; e < sci_end; ++e) {
    exponent = exponent * 10 + (*e - '0');
  }
  if (p[1] == '-') exponent = -exponent;
  int binary_exponent = 0;
  if (num_digits == 16 &&
      std::fabs(std::frexp(value, &binary_exponent)) == 0.5) {
    out->append(buf, PrintFirstRoundTrip(value, buf, buf + sizeof(buf)));
    return;
  }
  // %g prints exponent style, which with the zeros stripped is exactly the
  // scientific form, unless -4 <= X < precision.
  if (exponent < -4 || exponent >= std::max(15, num_digits)) {
    out->append(buf, sci_end);
    return;
  }
  if (negative) out->push_back('-');
  if (exponent < 0) {
    out->append("0.");
    out->append(static_cast<size_t>(-exponent - 1), '0');
    out->append(digits, static_cast<size_t>(num_digits));
  } else if (num_digits <= exponent + 1) {
    out->append(digits, static_cast<size_t>(num_digits));
    out->append(static_cast<size_t>(exponent + 1 - num_digits), '0');
  } else {
    out->append(digits, static_cast<size_t>(exponent + 1));
    out->push_back('.');
    out->append(digits + exponent + 1,
                static_cast<size_t>(num_digits - exponent - 1));
  }
}

}  // namespace sketchlink::obs
