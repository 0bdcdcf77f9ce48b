#include "text/edit_distance.h"

#include <algorithm>
#include <string>
#include <vector>

namespace sketchlink::text {

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter
  if (b.empty()) return a.size();

  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;

  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];  // D[i-1][j]
      const size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j - 1] + 1, up + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance) {
  if (a.size() < b.size()) std::swap(a, b);
  if (a.size() - b.size() > max_distance) return max_distance + 1;
  if (b.empty()) return a.size();

  const size_t kInf = max_distance + 1;
  std::vector<size_t> row(b.size() + 1, kInf);
  for (size_t j = 0; j <= std::min(b.size(), max_distance); ++j) row[j] = j;

  for (size_t i = 1; i <= a.size(); ++i) {
    // Only cells within the diagonal band |i-j| <= max_distance can hold a
    // value <= max_distance.
    const size_t lo = (i > max_distance) ? i - max_distance : 1;
    const size_t hi = std::min(b.size(), i + max_distance);
    size_t diag = (lo > 1) ? row[lo - 1] : row[0];
    if (lo == 1) row[0] = (i <= max_distance) ? i : kInf;
    size_t row_min = kInf;
    size_t left = (lo > 1) ? kInf : row[0];
    for (size_t j = lo; j <= hi; ++j) {
      const size_t up = row[j];
      const size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t v = std::min({left + 1, up + 1, diag + cost});
      v = std::min(v, kInf);
      row[j] = v;
      left = v;
      diag = up;
      row_min = std::min(row_min, v);
    }
    if (hi < b.size()) row[hi + 1] = kInf;  // seal the band edge
    if (row_min > max_distance) return kInf;  // the band can only grow
  }
  return std::min(row[b.size()], kInf);
}

size_t DamerauOsa(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;

  // Three rolling rows: i-2, i-1, i.
  std::vector<size_t> prev2(m + 1);
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;

  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t v = std::min({cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        v = std::min(v, prev2[j - 2] + 1);
      }
      cur[j] = v;
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

double NormalizedLevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(Levenshtein(a, b)) /
         static_cast<double>(longest);
}

}  // namespace sketchlink::text
