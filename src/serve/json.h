#ifndef SKETCHLINK_SERVE_JSON_H_
#define SKETCHLINK_SERVE_JSON_H_

// Minimal JSON value + recursive-descent parser for the service plane's
// request/response bodies. Deliberately small: objects preserve insertion
// order, numbers are doubles (with exact uint64 round-tripping for ids up
// to 2^53), strings support the standard escapes plus \uXXXX for the BMP.
// Depth-capped so hostile request bodies cannot blow the stack.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sketchlink::serve {

/// One JSON value. Cheap default construction (null); arrays/objects own
/// their children by value.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double d);
  static Json Int(uint64_t v) { return Number(static_cast<double>(v)); }
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, Json>>& object_items() const {
    return object_;
  }

  /// Object member by key, or nullptr. First match wins on (invalid but
  /// tolerated) duplicate keys.
  const Json* Find(std::string_view key) const;

  /// Typed object accessors with fallbacks: the value when present AND of
  /// the right type, `fallback` otherwise.
  double GetNumber(std::string_view key, double fallback) const;
  uint64_t GetUint(std::string_view key, uint64_t fallback) const;
  std::string GetString(std::string_view key, std::string_view fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;

  /// Builder helpers (no-ops on the wrong type).
  void Append(Json value);
  void Set(std::string key, Json value);

  /// Compact serialization (no whitespace), built on obs::AppendJsonString
  /// and obs::AppendJsonNumber, which the responses written in place share.
  std::string Dump() const;

  /// Parses `text` (entire input must be one JSON value; trailing
  /// whitespace allowed, trailing garbage is an error). InvalidArgument
  /// with a position-annotated message on malformed input, including a
  /// number too large for a finite double.
  static Result<Json> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace sketchlink::serve

#endif  // SKETCHLINK_SERVE_JSON_H_
