#ifndef SKETCHLINK_SIMD_KERNELS_H_
#define SKETCHLINK_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sketchlink::simd {

struct BitProfile;
struct JaroPattern;

/// The bit-parallel similarity kernels (kernels.cc). Each returns exactly the
/// same bits as its scalar reference in src/text (differentially tested).
/// They compile once, for the ISA baseline of the build, and callers run
/// them directly.

/// == text::Levenshtein(a, b), via Myers' bit-parallel recurrence
/// (single-word for min(|a|,|b|) <= 64, blocked beyond).
size_t Levenshtein(std::string_view a, std::string_view b);

/// == text::BoundedLevenshtein(a, b, max_distance): the exact distance when
/// it is <= max_distance, max_distance + 1 otherwise.
size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance);

/// == text::Jaro(a, b), scanning `a` against the pre-indexed `b`. `pattern`
/// must be BuildJaroPattern(b) with fits == true.
double Jaro(std::string_view a, std::string_view b,
            const JaroPattern& pattern);

/// == text::JaroWinkler(a, b) (standard 0.1 prefix scale). Indexes `b` on
/// every call and falls back to text::Jaro beyond the pattern's limits; to
/// score one string against many, bind a JaroWinklerQuery
/// (simd/jaro_pattern.h) once instead.
double JaroWinkler(std::string_view a, std::string_view b);

/// 1 - multiset Dice coefficient of two q-gram profiles: equals
/// 1 - text::QGramDice of the strings they were built from, including the
/// empty-profile conventions.
double ProfileDiceDistance(const BitProfile& a, const BitProfile& b);

/// == text::QGramJaccard for profiles built with the same q and padding.
double ProfileJaccard(const BitProfile& a, const BitProfile& b);

/// Lower bound on ProfileDiceDistance from the signatures and sizes alone
/// (no merge): every signature bit present in `a` but absent from `b` is
/// witnessed by at least one gram of `a` that cannot be in `b`, so the
/// multiset intersection is at most
/// min(|a| - popcount(sig_a & ~sig_b), |b| - popcount(sig_b & ~sig_a)).
/// Never exceeds ProfileDiceDistance(a, b), so pruning on it is exact.
double DiceDistanceBound(const BitProfile& a, const BitProfile& b);

/// Length-only lower bounds on the Jaro-Winkler distance (0.2*(1-mn/mx),
/// minus slack) of the query against n candidate lengths.
void JwLengthBounds(uint32_t query_len, const uint32_t* lens, size_t n,
                    double* out);

/// Length-only lower bounds on the normalized Levenshtein distance
/// (|la-lb|/max).
void LevLengthBounds(uint32_t query_len, const uint32_t* lens, size_t n,
                     double* out);

}  // namespace sketchlink::simd

#endif  // SKETCHLINK_SIMD_KERNELS_H_
