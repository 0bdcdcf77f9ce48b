#include "obs/json.h"

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

void AppendJsonNumber(double value, std::string* out) {
  char buf[32];
  char* end = buf;
  // Integers in the exactly-representable range print as integers so
  // record ids survive a JSON round trip byte-identically.
  if (value >= 0 && value <= 9007199254740992.0 &&
      value == std::floor(value)) {
    end = std::to_chars(buf, buf + sizeof(buf), static_cast<uint64_t>(value))
              .ptr;
  } else {
    // Shortest representation that round-trips: 0.8 prints as "0.8", not
    // "0.80000000000000004". to_chars with a precision prints what
    // printf("%.*g") prints in the C locale, inf and nan included.
    for (int precision = 15; precision <= 17; ++precision) {
      end = std::to_chars(buf, buf + sizeof(buf), value,
                          std::chars_format::general, precision)
                .ptr;
      double parsed = 0;
      if (std::from_chars(buf, end, parsed).ec == std::errc() &&
          parsed == value) {
        break;
      }
    }
  }
  out->append(buf, end);
}

}  // namespace sketchlink::obs
