#include "simd/kernels.h"

#include <algorithm>

#include "simd/bit_profile.h"
#include "simd/dispatch.h"
#include "simd/jaro_pattern.h"
#include "text/edit_distance.h"
#include "text/jaro.h"

namespace sketchlink::simd {

double Jaro(std::string_view a, std::string_view b) {
  if (!KernelsEnabled() || b.size() > 64) return text::Jaro(a, b);
  JaroPattern pattern;
  BuildJaroPattern(b, &pattern);
  if (!pattern.fits) return text::Jaro(a, b);
  return Ops().jaro(a, b, pattern);
}

double JaroWinkler(std::string_view a, std::string_view b) {
  return WinklerBoost(Jaro(a, b), a, b);
}

double JaroWinklerDistance(std::string_view a, std::string_view b) {
  return 1.0 - JaroWinkler(a, b);
}

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (!KernelsEnabled()) return text::Levenshtein(a, b);
  return Ops().levenshtein(a, b);
}

size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance) {
  if (!KernelsEnabled()) return text::BoundedLevenshtein(a, b, max_distance);
  return Ops().levenshtein_bounded(a, b, max_distance);
}

double NormalizedLevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(Levenshtein(a, b)) /
         static_cast<double>(longest);
}

double ProfileDiceDistance(const BitProfile& a, const BitProfile& b) {
  return Ops().profile_dice_distance(a, b);
}

double ProfileJaccard(const BitProfile& a, const BitProfile& b) {
  return Ops().profile_jaccard(a, b);
}

}  // namespace sketchlink::simd
