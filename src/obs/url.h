#ifndef SKETCHLINK_OBS_URL_H_
#define SKETCHLINK_OBS_URL_H_

// Query-string parsing for request handlers on serve::Server: the
// telemetry endpoints (/traces?limit=N) and `sketchlink_cli serve`'s
// /resolve?i=N. HttpRequest::query holds the raw text after '?';
// QueryParams splits it into percent-decoded key/value pairs with the usual
// tolerant semantics: empty pairs are skipped, a pair without '=' is a flag
// with an empty value, duplicate keys are all kept (first one wins for
// Get), and malformed percent escapes pass through verbatim rather than
// failing the whole request.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sketchlink::obs {

/// Percent-decodes `in` ("%41" -> "A", '+' -> ' '). Malformed escapes (a
/// '%' not followed by two hex digits) are kept verbatim — tolerant, never
/// throws away caller bytes.
std::string PercentDecode(std::string_view in);

/// Parsed query string: ordered, duplicate-preserving key/value pairs.
class QueryParams {
 public:
  QueryParams() = default;

  /// Parses "a=1&b=x%20y&flag" (the text after '?', not including it).
  static QueryParams Parse(std::string_view query);

  /// First value of `key`, or nullopt when absent. A bare flag ("&flag&")
  /// is present with an empty value.
  std::optional<std::string_view> Get(std::string_view key) const;

  /// First value of `key` parsed as a non-negative integer; `fallback` when
  /// absent or not a number.
  uint64_t GetInt(std::string_view key, uint64_t fallback) const;

  /// True when `key` appears at all (even with an empty value).
  bool Has(std::string_view key) const { return Get(key).has_value(); }

  size_t size() const { return params_.size(); }
  const std::vector<std::pair<std::string, std::string>>& items() const {
    return params_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> params_;
};

}  // namespace sketchlink::obs

#endif  // SKETCHLINK_OBS_URL_H_
