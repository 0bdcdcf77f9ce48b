#include "serve/json.h"

#include <cmath>
#include <cstdlib>

#include "obs/json.h"

namespace sketchlink::serve {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Run() {
    Json value;
    SKETCHLINK_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing garbage");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': return ParseString(out);
      case 't':
        if (!ConsumeWord("true")) return Error("bad literal");
        *out = Json::Bool(true);
        return Status::OK();
      case 'f':
        if (!ConsumeWord("false")) return Error("bad literal");
        *out = Json::Bool(false);
        return Status::OK();
      case 'n':
        if (!ConsumeWord("null")) return Error("bad literal");
        *out = Json::Null();
        return Status::OK();
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      Json key;
      SKETCHLINK_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      Json value;
      SKETCHLINK_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key.string_value(), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      Json value;
      SKETCHLINK_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseString(Json* out) {
    ++pos_;  // '"'
    std::string value;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = Json::Str(std::move(value));
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        value += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value += '"'; break;
        case '\\': value += '\\'; break;
        case '/': value += '/'; break;
        case 'b': value += '\b'; break;
        case 'f': value += '\f'; break;
        case 'n': value += '\n'; break;
        case 'r': value += '\r'; break;
        case 't': value += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // BMP only; encode as UTF-8. Surrogate halves are kept as-is
          // bytes-wise via the replacement below (tolerant, never fails).
          if (code < 0x80) {
            value += static_cast<char>(code);
          } else if (code < 0x800) {
            value += static_cast<char>(0xC0 | (code >> 6));
            value += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            value += static_cast<char>(0xE0 | (code >> 12));
            value += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            value += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("bad number");
    // strtod saturates overflow to +-inf, which has no JSON spelling.
    if (std::isinf(parsed)) return Error("number out of range");
    *out = Json::Number(parsed);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double d) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = d;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::GetNumber(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_value() : fallback;
}

uint64_t Json::GetUint(std::string_view key, uint64_t fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  const double d = v->number_value();
  if (d < 0 || d != std::floor(d)) return fallback;
  return static_cast<uint64_t>(d);
}

std::string Json::GetString(std::string_view key,
                            std::string_view fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_value()
                                        : std::string(fallback);
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_value() : fallback;
}

void Json::Append(Json value) {
  if (type_ == Type::kArray) array_.push_back(std::move(value));
}

void Json::Set(std::string key, Json value) {
  if (type_ == Type::kObject) {
    object_.emplace_back(std::move(key), std::move(value));
  }
}

void Json::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull: *out += "null"; return;
    case Type::kBool: *out += bool_ ? "true" : "false"; return;
    case Type::kNumber: obs::AppendJsonNumber(number_, out); return;
    case Type::kString: obs::AppendJsonString(string_, out); return;
    case Type::kArray: {
      *out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) *out += ',';
        array_[i].DumpTo(out);
      }
      *out += ']';
      return;
    }
    case Type::kObject: {
      *out += '{';
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) *out += ',';
        obs::AppendJsonString(object_[i].first, out);
        *out += ':';
        object_[i].second.DumpTo(out);
      }
      *out += '}';
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace sketchlink::serve
