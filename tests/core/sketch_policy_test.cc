// Unit tests for SketchPolicy: the sub-block routing and representative
// reservoir logic shared by BlockSketch and SBlockSketch.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/block_sketch.h"

namespace sketchlink {
namespace {

// A transparent distance for routing tests: distance = |len(a) - len(b)|/10,
// so strings of controlled length land in controlled rings.
KeyDistanceFn LengthDistance() {
  return [](std::string_view a, std::string_view b) {
    const double la = static_cast<double>(a.size());
    const double lb = static_cast<double>(b.size());
    return std::abs(la - lb) / 10.0;
  };
}

BlockSketchOptions Options(size_t lambda = 3, double theta = 0.25) {
  BlockSketchOptions options;
  options.lambda = lambda;
  options.theta = theta;
  options.delta = 0.1;
  options.seed = 0xabc;
  return options;
}

TEST(SketchPolicyTest, EmptyBlockRoutesByRing) {
  SketchPolicy policy(Options(), LengthDistance());
  SketchBlock block(3);
  block.anchor = "1234";  // length 4
  uint64_t comparisons = 0;
  // Same length -> distance 0 -> ring 0.
  EXPECT_EQ(policy.ChooseSubBlock(block, "abcd", &comparisons), 0u);
  // Length 8 -> distance 0.4 -> ring floor(0.4/0.25) = 1.
  EXPECT_EQ(policy.ChooseSubBlock(block, "abcdefgh", &comparisons), 1u);
  // Length 20 -> distance 1.6 -> clamped to lambda-1 = 2.
  EXPECT_EQ(policy.ChooseSubBlock(block, std::string(20, 'x'), &comparisons),
            2u);
  EXPECT_EQ(comparisons, 3u);  // one anchor distance per call
}

TEST(SketchPolicyTest, SeededRingWinsUntilRepresented) {
  SketchPolicy policy(Options(), LengthDistance());
  SketchBlock block(3);
  block.anchor = "1234";
  // Ring 1 already has a representative of length 9.
  block.subs[1].representatives = {"123456789"};
  uint64_t comparisons = 0;
  // A length-8 key (ring 1, represented) routes by nearest representative:
  // only candidate is the ring-1 rep -> sub-block 1.
  EXPECT_EQ(policy.ChooseSubBlock(block, "abcdefgh", &comparisons), 1u);
  // A length-4 key maps to ring 0 which is EMPTY: it seeds ring 0 even
  // though a representative exists elsewhere.
  EXPECT_EQ(policy.ChooseSubBlock(block, "abcd", &comparisons), 0u);
}

TEST(SketchPolicyTest, NearestRepresentativeWins) {
  SketchPolicy policy(Options(), LengthDistance());
  SketchBlock block(3);
  block.anchor = "1234";
  block.subs[0].representatives = {"1234"};        // length 4
  block.subs[2].representatives = {std::string(18, 'r')};  // length 18
  uint64_t comparisons = 0;
  // Length 16: ring would be min(1.2/0.25, 2) = 2, which is represented;
  // among representatives the length-18 one is nearest -> sub 2.
  EXPECT_EQ(policy.ChooseSubBlock(block, std::string(16, 'q'), &comparisons),
            2u);
  // Length 5: ring 0 is represented; nearest rep is length 4 -> sub 0.
  EXPECT_EQ(policy.ChooseSubBlock(block, "abcde", &comparisons), 0u);
}

TEST(SketchPolicyTest, ComparisonsCountAnchorsAndReps) {
  SketchPolicy policy(Options(), LengthDistance());
  SketchBlock block(3);
  block.anchor = "1234";
  block.subs[0].representatives = {"a", "bb", "ccc"};
  block.subs[1].representatives = {"dddddddd"};
  uint64_t comparisons = 0;
  (void)policy.ChooseSubBlock(block, "abcd", &comparisons);
  // 1 anchor + 4 representatives.
  EXPECT_EQ(comparisons, 5u);
}

TEST(SketchPolicyTest, CustomDistanceOverridesTheKind) {
  // A caller-supplied distance routes under every kind: with LengthDistance
  // a kQGramDice policy must route, and count comparisons, exactly like a
  // kJaroWinkler one, from the seeded anchor through reservoir churn.
  BlockSketchOptions qgram_options = Options();
  qgram_options.distance_kind = KeyDistanceKind::kQGramDice;
  SketchPolicy qgram(qgram_options, LengthDistance());
  SketchPolicy jaro_winkler(Options(), LengthDistance());
  SketchBlock qgram_block(3);
  SketchBlock jaro_winkler_block(3);
  qgram.SeedAnchor(&qgram_block, "1234");
  jaro_winkler.SeedAnchor(&jaro_winkler_block, "1234");
  uint64_t qgram_comparisons = 0;
  uint64_t jaro_winkler_comparisons = 0;
  for (size_t i = 0; i < 200; ++i) {
    const std::string key(1 + (i * 7) % 19, static_cast<char>('a' + i % 5));
    const size_t sub =
        qgram.ChooseSubBlock(qgram_block, key, &qgram_comparisons);
    ASSERT_EQ(sub, jaro_winkler.ChooseSubBlock(jaro_winkler_block, key,
                                               &jaro_winkler_comparisons))
        << "key " << i << " \"" << key << "\"";
    qgram.MaybeAddRepresentative(&qgram_block.subs[sub], key);
    jaro_winkler.MaybeAddRepresentative(&jaro_winkler_block.subs[sub], key);
  }
  EXPECT_EQ(qgram_comparisons, jaro_winkler_comparisons);
  EXPECT_GT(qgram_comparisons, 200u);  // representatives were compared
}

TEST(SketchPolicyTest, ReservoirFillsToRhoThenReplaces) {
  BlockSketchOptions options = Options();
  SketchPolicy policy(options, LengthDistance());
  SketchSubBlock sub;
  const size_t rho = options.rho();
  for (size_t i = 0; i < rho; ++i) {
    policy.MaybeAddRepresentative(&sub, "key" + std::to_string(i));
    EXPECT_EQ(sub.representatives.size(), i + 1);
  }
  // Beyond rho the size never grows; contents churn via coin-toss.
  std::set<std::string> all_seen(sub.representatives.begin(),
                                 sub.representatives.end());
  for (size_t i = 0; i < 200; ++i) {
    policy.MaybeAddRepresentative(&sub, "late" + std::to_string(i));
    EXPECT_EQ(sub.representatives.size(), rho);
  }
  // Some replacement must have happened (P(no heads in 200 tosses) ~ 0).
  bool replaced = false;
  for (const std::string& rep : sub.representatives) {
    if (!all_seen.count(rep)) replaced = true;
  }
  EXPECT_TRUE(replaced);
}

TEST(SketchPolicyTest, DefaultDistanceIsJaroWinkler) {
  const KeyDistanceFn distance = DefaultKeyDistance();
  EXPECT_DOUBLE_EQ(distance("SAME", "SAME"), 0.0);
  EXPECT_GT(distance("ABC", "XYZ"), 0.9);
  const double d = distance("JOHNSON", "JOHNSN");
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 0.25);  // a one-typo pair stays within theta
}

TEST(SketchPolicyTest, LambdaOneAlwaysRoutesToZero) {
  SketchPolicy policy(Options(/*lambda=*/1), LengthDistance());
  SketchBlock block(1);
  block.anchor = "1234";
  uint64_t comparisons = 0;
  EXPECT_EQ(policy.ChooseSubBlock(block, std::string(40, 'z'), &comparisons),
            0u);
  block.subs[0].representatives = {"abc"};
  EXPECT_EQ(policy.ChooseSubBlock(block, "q", &comparisons), 0u);
}

}  // namespace
}  // namespace sketchlink
