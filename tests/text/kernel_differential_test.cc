// Differential property harness for the src/simd kernel layer: every kernel
// must return *bit-identical* results to its scalar reference in src/text,
// across randomized corpora of ASCII, arbitrary-byte (UTF-8-ish), long,
// short, empty, and all-equal strings. It also holds the proof obligation of
// the query-side Jaro index: Jaro(a, b) == Jaro(b, a) bit for bit, on the
// reference and on the kernel, so simd::JaroWinklerQuery may index the query
// and scan the candidate. The RNG seed is logged on every run and can be
// pinned with SKETCHLINK_TEST_SEED, so any failure is replayable.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "simd/bit_profile.h"
#include "simd/jaro_pattern.h"
#include "simd/kernels.h"
#include "simd/score_batch.h"
#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/qgram.h"

namespace sketchlink {
namespace {

/// Per-test pair budgets. Each TEST below iterates exactly its constant, and
/// HarnessMetMillionPairBudget asserts the static sum — ctest launches every
/// case in its own process, so a runtime accumulator cannot see the whole
/// suite. g_pairs still tracks the live count for in-process sanity checks.
constexpr size_t kJaroPairs = 250000;
constexpr size_t kJaroFallbackPairs = 50000;
constexpr size_t kMyersPairs = 200000;
constexpr size_t kBlockedMyersPairs = 20000;
constexpr size_t kBoundedPairs = 100000;
constexpr size_t kDiceIters = 50000;      // x6 q values = 300k pairs
constexpr size_t kPruneBoundPairs = 100000;
constexpr size_t kBatchIters = 3000;      // x 3 metrics, >= 1 candidate each
constexpr size_t kSymmetryPairs = 1000000;
constexpr size_t kUnfitQueryPairs = 50000;

size_t g_pairs = 0;

uint64_t TestSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("SKETCHLINK_TEST_SEED");
    const uint64_t s =
        env != nullptr ? std::strtoull(env, nullptr, 10) : 20260805ULL;
    std::cerr << "[kernel_differential] seed=" << s
              << " (override with SKETCHLINK_TEST_SEED)\n";
    return s;
  }();
  return seed;
}

enum class Alphabet {
  kLowercase,      // name-like ASCII
  kBytes,          // arbitrary bytes 0..255 (exercises UTF-8 payloads)
  kTiny,           // {a, b}: maximal duplicate grams / transpositions
  kAllEqual,       // one repeated character
};

std::string RandomString(Rng& rng, size_t len, Alphabet alphabet) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    switch (alphabet) {
      case Alphabet::kLowercase:
        s[i] = static_cast<char>('a' + rng.UniformIndex(26));
        break;
      case Alphabet::kBytes:
        s[i] = static_cast<char>(rng.NextUint64() & 0xff);
        break;
      case Alphabet::kTiny:
        s[i] = static_cast<char>('a' + rng.UniformIndex(2));
        break;
      case Alphabet::kAllEqual:
        s[i] = 'z';
        break;
    }
  }
  return s;
}

Alphabet RandomAlphabet(Rng& rng) {
  switch (rng.UniformIndex(8)) {
    case 0:
    case 1:
      return Alphabet::kBytes;
    case 2:
      return Alphabet::kTiny;
    case 3:
      return Alphabet::kAllEqual;
    default:
      return Alphabet::kLowercase;
  }
}

/// A pair biased toward the interesting regimes: empties, equal strings,
/// near-duplicates (the record-linkage case), unrelated strings, and exact
/// word-boundary lengths (63/64/65 hit the single-word Myers and Jaro
/// window-mask edges).
std::pair<std::string, std::string> RandomPair(Rng& rng, size_t max_len) {
  const Alphabet alphabet = RandomAlphabet(rng);
  size_t len_a = rng.UniformIndex(max_len + 1);
  if (rng.UniformIndex(16) == 0) len_a = 63 + rng.UniformIndex(3);
  std::string a = RandomString(rng, len_a, alphabet);
  switch (rng.UniformIndex(8)) {
    case 0:
      return {a, std::string()};
    case 1:
      return {std::string(), a};
    case 2:
      return {a, a};
    case 3:
    case 4: {
      // Perturb a few positions / append — near-duplicates.
      std::string b = a;
      const size_t edits = 1 + rng.UniformIndex(3);
      for (size_t e = 0; e < edits && !b.empty(); ++e) {
        const size_t pos = rng.UniformIndex(b.size());
        switch (rng.UniformIndex(3)) {
          case 0:
            b[pos] = static_cast<char>('a' + rng.UniformIndex(26));
            break;
          case 1:
            b.erase(pos, 1);
            break;
          default:
            b.insert(pos, 1, static_cast<char>('a' + rng.UniformIndex(26)));
            break;
        }
      }
      return {std::move(a), std::move(b)};
    }
    default:
      return {std::move(a),
              RandomString(rng, rng.UniformIndex(max_len + 1), alphabet)};
  }
}

TEST(KernelDifferentialTest, JaroMatchesScalarOnEveryTier) {
  Rng rng(TestSeed() ^ 0x1a401ULL);
  size_t fits = 0;
  for (size_t iter = 0; iter < kJaroPairs; ++iter) {
    auto [a, b] = RandomPair(rng, 64);
    simd::JaroPattern pattern;
    simd::BuildJaroPattern(b, &pattern);
    ++g_pairs;
    if (!pattern.fits) continue;  // covered by JaroWrapperFallsBack
    ++fits;
    ASSERT_EQ(text::Jaro(a, b), simd::Jaro(a, b, pattern))
        << "Jaro(\"" << a << "\", \"" << b << "\")";
  }
  // The corpus must actually exercise the bit-parallel path.
  EXPECT_GT(fits, kJaroPairs * 3 / 5);
}

TEST(KernelDifferentialTest, JaroWrapperFallsBackBeyondKernelLimits) {
  Rng rng(TestSeed() ^ 0xfa11bacULL);
  for (size_t iter = 0; iter < kJaroFallbackPairs; ++iter) {
    // Long strings (> 64) and byte alphabets (> 32 distinct) force the
    // text::Jaro fallback inside the wrapper.
    auto [a, b] = RandomPair(rng, 120);
    ++g_pairs;
    ASSERT_EQ(text::Jaro(a, b), simd::JaroWinklerQuery(b).Jaro(a))
        << a << " / " << b;
    ASSERT_EQ(text::JaroWinkler(a, b), simd::JaroWinkler(a, b));
    ASSERT_EQ(text::JaroWinklerDistance(a, b),
              1.0 - simd::JaroWinkler(a, b));
  }
}

TEST(KernelDifferentialTest, MyersLevenshteinMatchesDpOnEveryTier) {
  Rng rng(TestSeed() ^ 0x1e7ULL);
  for (size_t iter = 0; iter < kMyersPairs; ++iter) {
    auto [a, b] = RandomPair(rng, 80);
    ++g_pairs;
    ASSERT_EQ(text::Levenshtein(a, b), simd::Levenshtein(a, b))
        << "lev(\"" << a << "\", \"" << b << "\")";
  }
}

TEST(KernelDifferentialTest, BlockedMyersMatchesDpOnLongStrings) {
  Rng rng(TestSeed() ^ 0xb10cULL);
  for (size_t iter = 0; iter < kBlockedMyersPairs; ++iter) {
    // Both sides > 64 forces the multi-word recurrence (up to 5 blocks).
    const size_t len_a = 65 + rng.UniformIndex(240);
    const size_t len_b = 65 + rng.UniformIndex(240);
    const Alphabet alphabet = RandomAlphabet(rng);
    const std::string a = RandomString(rng, len_a, alphabet);
    std::string b = alphabet == Alphabet::kAllEqual
                        ? RandomString(rng, len_b, alphabet)
                        : a.substr(0, std::min(len_b, a.size()));
    b.resize(len_b, 'q');
    if (rng.CoinFlip()) b = RandomString(rng, len_b, alphabet);
    ++g_pairs;
    ASSERT_EQ(text::Levenshtein(a, b), simd::Levenshtein(a, b));
  }
}

TEST(KernelDifferentialTest, BoundedLevenshteinHonorsContractOnEveryTier) {
  Rng rng(TestSeed() ^ 0xb0edULL);
  for (size_t iter = 0; iter < kBoundedPairs; ++iter) {
    auto [a, b] = RandomPair(rng, 48);
    const size_t max_distance = rng.UniformIndex(10);
    ++g_pairs;
    ASSERT_EQ(text::BoundedLevenshtein(a, b, max_distance),
              simd::BoundedLevenshtein(a, b, max_distance))
        << "max=" << max_distance;
  }
}

TEST(KernelDifferentialTest, BitProfileDiceAndJaccardMatchQgramOnEveryTier) {
  Rng rng(TestSeed() ^ 0xd1ceULL);
  // q = 1 hits the empty-profile conventions, 2 is the sketch default,
  // 7 is the widest packed gram, 8/9 exercise the wide-string fallback.
  const size_t qs[] = {1, 2, 3, 7, 8, 9};
  for (size_t iter = 0; iter < kDiceIters; ++iter) {
    auto [a, b] = RandomPair(rng, 48);
    for (const size_t q : qs) {
      const simd::BitProfile pa = simd::MakeBitProfile(a, q);
      const simd::BitProfile pb = simd::MakeBitProfile(b, q);
      ++g_pairs;
      // The scalar reference distances: 1 - text::QGramDice (its
      // empty-profile conventions included) and text::QGramJaccard.
      const double dice = text::QGramDice(a, b, q);
      const double expected_dice_distance =
          (pa.total == 0 && pb.total == 0) ? 0.0
          : (pa.total == 0 || pb.total == 0) ? 1.0
                                             : 1.0 - dice;
      ASSERT_EQ(expected_dice_distance, simd::ProfileDiceDistance(pa, pb))
          << "q=" << q << " a=\"" << a << "\" b=\"" << b << "\"";
      ASSERT_EQ(text::QGramJaccard(a, b, q), simd::ProfileJaccard(pa, pb))
          << "q=" << q << " a=\"" << a << "\" b=\"" << b << "\"";
    }
  }
}

TEST(KernelDifferentialTest, PruneBoundsNeverExceedExactDistances) {
  Rng rng(TestSeed() ^ 0x9b0edULL);
  for (size_t iter = 0; iter < kPruneBoundPairs; ++iter) {
    auto [a, b] = RandomPair(rng, 64);
    const simd::BitProfile pa = simd::MakeBitProfile(a, 2);
    const simd::BitProfile pb = simd::MakeBitProfile(b, 2);
    ++g_pairs;
    const uint32_t len_a = static_cast<uint32_t>(a.size());
    const uint32_t len_b = static_cast<uint32_t>(b.size());
    const double jw_exact = text::JaroWinklerDistance(a, b);
    const double lev_exact = a.empty() && b.empty()
                                 ? 0.0
                                 : static_cast<double>(text::Levenshtein(a, b)) /
                                       static_cast<double>(
                                           std::max(a.size(), b.size()));
    double jw_bound = 0.0;
    double lev_bound = 0.0;
    simd::JwLengthBounds(len_a, &len_b, 1, &jw_bound);
    simd::LevLengthBounds(len_a, &len_b, 1, &lev_bound);
    ASSERT_LE(jw_bound, jw_exact) << a << "/" << b;
    ASSERT_LE(lev_bound, lev_exact);
    ASSERT_LE(simd::DiceDistanceBound(pa, pb),
              simd::ProfileDiceDistance(pa, pb));
  }
}

TEST(KernelDifferentialTest, BatchScoreEqualsScalarArgminScan) {
  Rng rng(TestSeed() ^ 0xba7c4ULL);
  // The batch must produce the same argmin as a plain scalar scan with the
  // strict `<` update rule of SketchPolicy::ChooseSubBlock. The candidates
  // carry no Jaro pattern: the kJaroWinkler query indexes itself, and its
  // distances must equal the rep-side scalar reference.
  for (size_t iter = 0; iter < kBatchIters; ++iter) {
    const size_t n = 1 + rng.UniformIndex(24);
    std::vector<std::string> reps;
    std::vector<simd::BitProfile> profiles(n);
    auto [query, first] = RandomPair(rng, 40);
    reps.push_back(first);
    for (size_t i = 1; i < n; ++i) {
      reps.push_back(RandomPair(rng, 40).second);
    }
    std::vector<simd::BatchCandidate> candidates(n);
    for (size_t i = 0; i < n; ++i) {
      profiles[i] = simd::MakeBitProfile(reps[i], 2);
      candidates[i] = {reps[i], &profiles[i]};
    }
    const simd::BitProfile query_profile = simd::MakeBitProfile(query, 2);
    g_pairs += n;

    const simd::BatchQuery jw(simd::BatchMetric::kJaroWinkler, query);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(text::JaroWinklerDistance(query, reps[i]),
                jw.Distance(candidates[i]))
          << "query=\"" << query << "\" rep=\"" << reps[i] << "\"";
    }
    const simd::BatchQuery dice(simd::BatchMetric::kQGramDice, query,
                                &query_profile);
    const simd::BatchQuery lev(simd::BatchMetric::kLevenshtein, query);
    for (const simd::BatchQuery* batch : {&jw, &dice, &lev}) {
      size_t best_index = SIZE_MAX;
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        const double d = batch->Distance(candidates[i]);
        if (d < best) {
          best = d;
          best_index = i;
        }
      }
      const simd::BatchResult result = batch->Score(candidates.data(), n);
      ASSERT_EQ(best_index, result.best_index)
          << "metric=" << static_cast<int>(batch->metric()) << " query=\""
          << query << "\"";
      ASSERT_EQ(best, result.best_distance);
      ASSERT_EQ(result.evaluated + result.pruned, n);
    }
  }
}

/// Checks one pair both ways: text::Jaro is symmetric bit for bit, the
/// kernel returns the same double whichever side it indexes, and a query
/// object bound to either side returns text::JaroWinkler(a, b). An unfit
/// side (> 64 bytes, > 32 distinct bytes) only skips the kernel calls that
/// need its pattern.
void ExpectSymmetric(const std::string& a, const std::string& b) {
  const double jaro = text::Jaro(a, b);
  ASSERT_EQ(jaro, text::Jaro(b, a)) << "\"" << a << "\" / \"" << b << "\"";
  const double jaro_winkler = text::JaroWinkler(a, b);
  simd::JaroPattern pa;
  simd::JaroPattern pb;
  simd::BuildJaroPattern(a, &pa);
  simd::BuildJaroPattern(b, &pb);
  if (pb.fits) {
    ASSERT_EQ(jaro, simd::Jaro(a, b, pb))
        << "\"" << a << "\" / \"" << b << "\"";
  }
  if (pa.fits) {
    ASSERT_EQ(jaro, simd::Jaro(b, a, pa))
        << "\"" << b << "\" / \"" << a << "\"";
  }
  const simd::JaroWinklerQuery query_a(a);
  const simd::JaroWinklerQuery query_b(b);
  ASSERT_EQ(jaro, query_a.Jaro(b));
  ASSERT_EQ(jaro, query_b.Jaro(a));
  ASSERT_EQ(jaro_winkler, query_a.Similarity(b))
      << "\"" << a << "\" / \"" << b << "\"";
  ASSERT_EQ(jaro_winkler, query_b.Similarity(a))
      << "\"" << b << "\" / \"" << a << "\"";
}

TEST(JaroSymmetryTest, ExhaustiveOverThreeLettersUpToLengthSeven) {
  // Every string over {A, B, C} of length 0..7 (3280 strings) against every
  // other, unordered: 5.4M pairs, each checked both ways.
  std::vector<std::string> strings{std::string()};
  for (size_t begin = 0; strings.back().size() < 7;) {
    const size_t end = strings.size();
    for (size_t i = begin; i < end; ++i) {
      for (const char c : {'A', 'B', 'C'}) strings.push_back(strings[i] + c);
    }
    begin = end;
  }
  ASSERT_EQ(strings.size(), 3280u);
  // Bind every string once up front; ExpectSymmetric's per-pair binding
  // would dominate at this pair count.
  std::vector<simd::JaroWinklerQuery> queries(strings.size());
  for (size_t i = 0; i < strings.size(); ++i) queries[i].Bind(strings[i]);
  std::vector<simd::JaroPattern> patterns(strings.size());
  for (size_t i = 0; i < strings.size(); ++i) {
    simd::BuildJaroPattern(strings[i], &patterns[i]);
    ASSERT_TRUE(patterns[i].fits);
  }
  for (size_t i = 0; i < strings.size(); ++i) {
    const std::string& a = strings[i];
    for (size_t j = i; j < strings.size(); ++j) {
      const std::string& b = strings[j];
      const double jaro = text::Jaro(a, b);
      ASSERT_EQ(jaro, text::Jaro(b, a)) << a << " / " << b;
      const double jaro_winkler = text::JaroWinkler(a, b);
      ASSERT_EQ(jaro, simd::Jaro(a, b, patterns[j])) << a << " / " << b;
      ASSERT_EQ(jaro, simd::Jaro(b, a, patterns[i])) << b << " / " << a;
      ASSERT_EQ(jaro_winkler, queries[i].Similarity(b)) << a << " / " << b;
      ASSERT_EQ(jaro_winkler, queries[j].Similarity(a)) << b << " / " << a;
    }
  }
}

TEST(JaroSymmetryTest, RandomPairsIncludingNearCopies) {
  // Lengths 0..64 over name-like, byte, two-letter and one-letter
  // alphabets; RandomPair makes near-copies (the record-linkage case) for a
  // quarter of the pairs, and byte strings overflow the 32-slot pattern.
  Rng rng(TestSeed() ^ 0x5e77e7ULL);
  for (size_t iter = 0; iter < kSymmetryPairs; ++iter) {
    const auto [a, b] = RandomPair(rng, 64);
    ++g_pairs;
    ExpectSymmetric(a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(JaroSymmetryTest, QueriesThePatternCannotHoldFallBackExactly) {
  // Queries longer than 64 bytes or with more than 32 distinct bytes score
  // through text::Jaro; candidates of any length scan against a fitting
  // query. Both must still equal text::JaroWinkler(query, candidate).
  Rng rng(TestSeed() ^ 0x0f17ULL);
  size_t long_queries = 0;
  size_t wide_queries = 0;
  for (size_t iter = 0; iter < kUnfitQueryPairs; ++iter) {
    std::string query;
    std::string candidate;
    switch (iter % 3) {
      case 0: {  // long: a name-like run past the 64-bit window
        auto pair = RandomPair(rng, 64);
        query = RandomString(rng, 65 + rng.UniformIndex(100),
                             Alphabet::kLowercase);
        candidate = rng.CoinFlip() ? pair.second : query.substr(0, 70);
        ++long_queries;
        break;
      }
      case 1: {  // wide: 33+ distinct bytes within 64 positions
        const size_t width = 33 + rng.UniformIndex(32);
        std::string wide;
        for (size_t c = 0; c < width; ++c) {
          wide.push_back(static_cast<char>('!' + c));
        }
        query = wide;
        candidate = rng.CoinFlip() ? RandomPair(rng, 64).second : wide;
        if (!candidate.empty() && rng.CoinFlip()) candidate.erase(0, 1);
        ++wide_queries;
        break;
      }
      default:  // fitting query, candidate past 64 bytes
        query = RandomString(rng, rng.UniformIndex(41), Alphabet::kLowercase);
        candidate = query + RandomString(rng, 65, Alphabet::kLowercase);
        break;
    }
    simd::JaroPattern pattern;
    simd::BuildJaroPattern(query, &pattern);
    ASSERT_EQ(pattern.fits, iter % 3 == 2);
    ++g_pairs;
    ExpectSymmetric(query, candidate);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(long_queries, 0u);
  EXPECT_GT(wide_queries, 0u);
}

TEST(KernelDifferentialTest, HarnessMetMillionPairBudget) {
  // Static sum of the per-test budgets above (every test iterates exactly
  // its constant; the batch test contributes at least one pair per iter per
  // metric). ctest runs each case in its own process, so this is the only
  // process-independent way to state the suite-wide budget.
  constexpr size_t kSuitePairs = kJaroPairs + kJaroFallbackPairs +
                                 kMyersPairs + kBlockedMyersPairs +
                                 kBoundedPairs + kDiceIters * 6 +
                                 kPruneBoundPairs + kBatchIters * 3 +
                                 kSymmetryPairs + kUnfitQueryPairs;
  static_assert(kSuitePairs >= 1000000u,
                "the differential harness is sized to prove >= 1M pairs");
  EXPECT_GE(kSuitePairs, 1000000u);
}

}  // namespace
}  // namespace sketchlink
