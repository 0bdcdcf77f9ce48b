// Determinism regression for the batched kernel routing path: a
// ShardedBlockSketch built at 1, 2, and 8 threads must be IDENTICAL — same
// blocks, same candidates, same comparison counters — for every built-in
// distance kind. The kernel sketch is additionally cross-checked against a
// sketch pinned to the scalar comparison loop (explicit KeyDistanceFn),
// which must route every record to the same sub-block.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/sharded_sketch.h"
#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/qgram.h"

namespace sketchlink {
namespace {

std::vector<std::pair<std::string, std::string>> MakeEntries(size_t n,
                                                             size_t distinct) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  Rng rng(0xde7e21ULL);
  const char* surnames[] = {"smith", "johnson", "miller", "o'brien", "ng"};
  for (size_t i = 0; i < n; ++i) {
    const size_t block = rng.UniformIndex(distinct);
    std::string value = std::string(surnames[i % 5]) + "#john#" +
                        std::to_string(block * 37);
    if (i % 3 == 1) value[0] = 'z';
    if (i % 5 == 2) value += "xy";
    if (i % 11 == 3) value.clear();  // empty key values must route too
    out.emplace_back("key" + std::to_string(block), std::move(value));
  }
  return out;
}

std::vector<SketchInsert> AsInserts(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::vector<SketchInsert> inserts;
  inserts.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    inserts.push_back(SketchInsert{&entries[i].first, &entries[i].second,
                                   static_cast<RecordId>(i + 1)});
  }
  return inserts;
}

/// The scalar reference distance of a built-in kind, as an explicit
/// KeyDistanceFn — passing it pins the scalar comparison loop.
KeyDistanceFn ScalarFnFor(KeyDistanceKind kind, size_t qgram) {
  switch (kind) {
    case KeyDistanceKind::kJaroWinkler:
      return DefaultKeyDistance();
    case KeyDistanceKind::kQGramDice:
      // Exactly the cached-profile metric, recomputed from the raw strings
      // on every call (conventions included — QGrams pads, so even an empty
      // string has a non-empty profile for q >= 2).
      return [qgram](std::string_view a, std::string_view b) {
        return 1.0 - text::QGramDice(a, b, qgram);
      };
    case KeyDistanceKind::kLevenshtein:
      return [](std::string_view a, std::string_view b) {
        return text::NormalizedLevenshteinDistance(a, b);
      };
  }
  return DefaultKeyDistance();
}

class KernelRoutingDeterminismTest
    : public ::testing::TestWithParam<KeyDistanceKind> {};

TEST_P(KernelRoutingDeterminismTest, IdenticalAcrossThreadsTiersAndScalar) {
  const KeyDistanceKind kind = GetParam();
  BlockSketchOptions options;
  options.distance_kind = kind;

  const auto entries = MakeEntries(2500, 60);
  const auto inserts = AsInserts(entries);

  // Scalar loop: an explicit KeyDistanceFn computing the same metric, which
  // overrides the kind. Built once; everything else must match it.
  ShardedBlockSketch legacy(options, ScalarFnFor(kind, options.qgram));
  legacy.InsertBatch(inserts, nullptr);
  const BlockSketchStats legacy_stats = legacy.stats();

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    ShardedBlockSketch sketch(options);  // empty fn: kernel path
    sketch.InsertBatch(inserts, &pool);

    EXPECT_EQ(sketch.num_blocks(), legacy.num_blocks())
        << "threads=" << threads;
    // The historical comparisons accounting is identical on the kernel
    // path even when prune bounds skip evaluations.
    EXPECT_EQ(sketch.stats().representative_comparisons,
              legacy_stats.representative_comparisons)
        << "threads=" << threads;

    for (const auto& [key, value] : entries) {
      ASSERT_EQ(sketch.Candidates(key, value), legacy.Candidates(key, value))
          << "threads=" << threads << " key=" << key << " value=" << value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, KernelRoutingDeterminismTest,
                         ::testing::Values(KeyDistanceKind::kJaroWinkler,
                                           KeyDistanceKind::kQGramDice,
                                           KeyDistanceKind::kLevenshtein),
                         [](const auto& info) {
                           switch (info.param) {
                             case KeyDistanceKind::kJaroWinkler:
                               return "JaroWinkler";
                             case KeyDistanceKind::kQGramDice:
                               return "QGramDice";
                             case KeyDistanceKind::kLevenshtein:
                               return "Levenshtein";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace sketchlink
