#include "text/normalize.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>

namespace sketchlink::text {

namespace {

// What NormalizeFieldTo does with each byte: kSpace for the bytes
// std::isspace accepts, kDrop for those whose std::toupper form falls
// outside [A-Z0-9'-], otherwise that form. These are the "C" locale's
// classes, the locale every binary here runs in (nothing calls setlocale);
// the table saves two locale-indirected calls per byte.
constexpr char kDrop = 0;
constexpr char kSpace = 1;

constexpr std::array<char, 256> MakeFoldTable() {
  std::array<char, 256> table{};
  for (int c = 0; c < 256; ++c) {
    char folded = kDrop;
    if (c == ' ' || (c >= '\t' && c <= '\r')) {
      folded = kSpace;
    } else if (c >= 'a' && c <= 'z') {
      folded = static_cast<char>(c - 'a' + 'A');
    } else if ((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
               c == '\'' || c == '-') {
      folded = static_cast<char>(c);
    }
    table[c] = folded;
  }
  return table;
}

constexpr std::array<char, 256> kFold = MakeFoldTable();

}  // namespace

std::string ToUpperAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string NormalizeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  NormalizeFieldTo(s, &out);
  return out;
}

void NormalizeFieldTo(std::string_view s, std::string* out) {
  // No Trim pass: leading whitespace never arms the pending space (nothing
  // is emitted yet) and trailing whitespace never flushes it.
  const size_t base = out->size();
  bool pending_space = false;
  for (const char raw : s) {
    const char folded = kFold[static_cast<unsigned char>(raw)];
    if (folded == kSpace) {
      pending_space = out->size() > base;
      continue;
    }
    if (folded == kDrop) continue;
    if (pending_space) {
      out->push_back(' ');
      pending_space = false;
    }
    out->push_back(folded);
  }
}

bool IsNormalized(std::string_view s) {
  // NormalizeFieldTo emits a byte unchanged only when the table keeps it as
  // is, and a space only between two emitted bytes.
  bool after_space = true;  // a leading space is not normalized
  for (const char raw : s) {
    if (raw == ' ') {
      if (after_space) return false;
      after_space = true;
      continue;
    }
    const char folded = kFold[static_cast<unsigned char>(raw)];
    if (folded != raw || folded == kDrop) return false;
    after_space = false;
  }
  return s.empty() || !after_space;
}

std::string_view Prefix(std::string_view s, size_t n) {
  return s.substr(0, std::min(n, s.size()));
}

std::string_view FractionPrefix(std::string_view s, double fraction) {
  if (fraction >= 1.0 || s.empty()) return s;
  if (fraction <= 0.0) return s.substr(0, 0);
  const size_t n = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(s.size())));
  return s.substr(0, std::max<size_t>(n, 1));
}

}  // namespace sketchlink::text
