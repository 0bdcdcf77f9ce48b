#ifndef SKETCHLINK_SIMD_KERNELS_H_
#define SKETCHLINK_SIMD_KERNELS_H_

#include <cstddef>
#include <string_view>

namespace sketchlink::simd {

struct BitProfile;

/// Single-pair entry points of the kernel layer. Each returns exactly the
/// same bits as its scalar reference in src/text (differentially tested),
/// dispatching to the active tier and falling back to the reference
/// implementation when the kernels are disabled (SKETCHLINK_SIMD=off) or the
/// input exceeds a kernel limit (e.g. Jaro with |b| > 64).

/// == text::Jaro(a, b).
double Jaro(std::string_view a, std::string_view b);

/// == text::JaroWinkler(a, b) (standard 0.1 prefix scale). Indexes `b` on
/// every call; to score one string against many, bind a JaroWinklerQuery
/// (simd/jaro_pattern.h) once instead.
double JaroWinkler(std::string_view a, std::string_view b);

/// == text::JaroWinklerDistance(a, b).
double JaroWinklerDistance(std::string_view a, std::string_view b);

/// == text::Levenshtein(a, b), via Myers' bit-parallel recurrence.
size_t Levenshtein(std::string_view a, std::string_view b);

/// == text::BoundedLevenshtein(a, b, max_distance) (max+1 when exceeded).
size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance);

/// == text::NormalizedLevenshteinDistance(a, b).
double NormalizedLevenshteinDistance(std::string_view a, std::string_view b);

/// == 1 - text::QGramDice conventions over cached profiles; equals
/// SketchPolicy::ProfileDistance on profiles of the same strings and q.
double ProfileDiceDistance(const BitProfile& a, const BitProfile& b);

/// == text::QGramJaccard over cached profiles.
double ProfileJaccard(const BitProfile& a, const BitProfile& b);

}  // namespace sketchlink::simd

#endif  // SKETCHLINK_SIMD_KERNELS_H_
