#include "simd/jaro_pattern.h"

#include <algorithm>

#include "simd/kernels.h"
#include "text/jaro.h"

namespace sketchlink::simd {

void BuildJaroPattern(std::string_view b, JaroPattern* out) {
  *out = JaroPattern{};
  if (b.size() > 64) return;  // fits stays false; callers use scalar Jaro
  out->length = static_cast<uint8_t>(b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    const unsigned char c = static_cast<unsigned char>(b[j]);
    size_t slot = 0;
    while (slot < out->num_distinct && out->chars[slot] != c) ++slot;
    if (slot == out->num_distinct) {
      if (out->num_distinct == JaroPattern::kMaxDistinct) {
        *out = JaroPattern{};
        out->length = static_cast<uint8_t>(b.size());
        return;  // too many distinct bytes for the fixed index
      }
      out->chars[slot] = c;
      ++out->num_distinct;
    }
    out->masks[slot] |= uint64_t{1} << j;
  }
  out->fits = true;

  // Build the O(1) direct table when the low 6 bits distinguish every
  // distinct byte (always true for normalized field text). A collision
  // leaves direct=false and lookups on the slot-scan path.
  out->direct = true;
  for (size_t slot = 0; slot < out->num_distinct; ++slot) {
    const unsigned char c = out->chars[slot];
    const size_t idx = c & 63u;
    // Occupied iff the mask is nonzero: every distinct byte occurs at
    // least once in b.
    if (out->peq[idx] != 0) {
      out->direct = false;
      out->peq_char.fill(0);
      out->peq.fill(0);
      return;
    }
    out->peq_char[idx] = c;
    out->peq[idx] = out->masks[slot];
  }
}

double WinklerBoost(double jaro, std::string_view a, std::string_view b) {
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

void JaroWinklerQuery::Bind(std::string_view query) {
  query_ = query;
  BuildJaroPattern(query, &pattern_);
}

double JaroWinklerQuery::Jaro(std::string_view x) const {
  // The kernel scans its first argument against the indexed second one:
  // simd::Jaro(x, query) == text::Jaro(x, query) == text::Jaro(query, x).
  return pattern_.fits ? simd::Jaro(x, query_, pattern_)
                       : text::Jaro(query_, x);
}

}  // namespace sketchlink::simd
