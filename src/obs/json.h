#ifndef SKETCHLINK_OBS_JSON_H_
#define SKETCHLINK_OBS_JSON_H_

// The one JSON writer: string and number formatting shared by the metrics
// JSON exporter, the request log, the benchmark sidecars (bench/bench_json.h)
// and serve::Json.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sketchlink::obs {

/// Appends `s` as a JSON string literal, surrounding quotes included.
void AppendJsonString(std::string_view s, std::string* out);

/// Appends `value` as a JSON number: an exact integer in [0, 2^53] without a
/// decimal point, anything else as the shortest of %.15g, %.16g, %.17g that
/// reads back as `value` (inf and nan print as printf prints them, which is
/// not JSON; serve::Json::Parse rejects both). That string is laid out from
/// one shortest std::to_chars conversion; only subnormals, inf, nan and
/// 16-digit powers of two run the precision loop itself.
void AppendJsonNumber(double value, std::string* out);

/// One flat JSON object built field by field (insertion order preserved).
class JsonFields {
 public:
  void Add(const std::string& key, const std::string& value) {
    std::string json;
    AppendJsonString(value, &json);
    fields_.emplace_back(key, std::move(json));
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const std::string& key, double value) {
    std::string json;
    AppendJsonNumber(value, &json);
    fields_.emplace_back(key, std::move(json));
  }
  void Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  /// Splices a pre-rendered JSON value (object/array) under `key`.
  void AddRaw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonString(fields_[i].first, &out);
      out += ": ";
      out += fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace sketchlink::obs

#endif  // SKETCHLINK_OBS_JSON_H_
