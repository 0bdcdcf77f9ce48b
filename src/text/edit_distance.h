#ifndef SKETCHLINK_TEXT_EDIT_DISTANCE_H_
#define SKETCHLINK_TEXT_EDIT_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace sketchlink::text {

/// Classic Levenshtein distance (substitute/insert/delete, unit costs).
/// O(|a|*|b|) time, O(min(|a|,|b|)) space.
size_t Levenshtein(std::string_view a, std::string_view b);

/// Banded Levenshtein with early exit: returns the exact distance if it is
/// <= `max_distance`, otherwise returns `max_distance + 1`. Runs in
/// O(max_distance * min(|a|,|b|)) time, which is what the matching phase
/// needs when it only cares whether a pair is within threshold theta.
size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance);

/// Optimal string alignment (restricted Damerau-Levenshtein): Levenshtein
/// plus transposition of adjacent characters as a unit-cost operation. The
/// paper's perturbation model uses edit/delete/insert/transpose ops, so this
/// is the natural distance for its ground truth.
size_t DamerauOsa(std::string_view a, std::string_view b);

/// Normalized edit distance in [0,1]: dist/max(|a|,|b|); 0 for two empty
/// strings. The routing metric behind KeyDistanceKind::kLevenshtein.
double NormalizedLevenshteinDistance(std::string_view a, std::string_view b);

}  // namespace sketchlink::text

#endif  // SKETCHLINK_TEXT_EDIT_DISTANCE_H_
