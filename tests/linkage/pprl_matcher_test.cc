#include "linkage/pprl_matcher.h"

#include <gtest/gtest.h>

#include "blocking/presets.h"
#include "datagen/generators.h"
#include "linkage/engine.h"
#include "linkage/metrics.h"
#include "linkage/similarity.h"

namespace sketchlink {
namespace {

using datagen::DatasetKind;

TEST(PprlMatcherTest, EncodingSimilarityBounds) {
  BitVector a(100);
  BitVector b(100);
  EXPECT_DOUBLE_EQ(PprlMatcher::EncodingSimilarity(a, b), 1.0);
  for (size_t i = 0; i < 100; ++i) a.SetBit(i);
  EXPECT_DOUBLE_EQ(PprlMatcher::EncodingSimilarity(a, b), 0.0);
}

TEST(PprlMatcherTest, MatchesPerturbedEncodingsOnly) {
  auto blocker = MakeLshBlocker(DatasetKind::kNcvr);
  PprlMatcher matcher(blocker.get(), /*similarity_threshold=*/0.9);

  Record base;
  base.id = 1;
  base.entity_id = 1;
  base.fields = {"JAMES", "JOHNSON", "100 MAIN ST", "RALEIGH"};
  ASSERT_TRUE(matcher.Insert(base, blocker->Keys(base), "").ok());

  Record other;
  other.id = 2;
  other.entity_id = 2;
  other.fields = {"OLIVIA", "GUTIERREZ", "9 PINE RD", "ASHEVILLE"};
  ASSERT_TRUE(matcher.Insert(other, blocker->Keys(other), "").ok());

  Record query = base;
  query.id = 100;
  query.fields[1] = "JOHNSONN";  // one typo
  KeyScratch keys;
  blocker->ExtractKeys(query, &keys);
  QueryScratch scratch;
  ASSERT_TRUE(matcher.ResolveInto(query, keys, &scratch).ok());
  ASSERT_EQ(scratch.matches.size(), 1u);
  EXPECT_EQ(scratch.matches[0], 1u);
}

TEST(PprlMatcherTest, EndToEndQualityTracksPlaintextLinkage) {
  // The PPRL promise: near-plaintext quality while only encodings cross the
  // boundary. Compare against nothing fancier than a sanity floor here; the
  // paper-level comparison lives in the benches.
  datagen::WorkloadSpec spec;
  spec.kind = DatasetKind::kNcvr;
  spec.num_entities = 200;
  spec.copies_per_entity = 6;
  spec.max_perturb_ops = 3;
  spec.seed = 99;
  const datagen::Workload workload = datagen::MakeWorkload(spec);
  auto blocker = MakeLshBlocker(spec.kind);
  const RecordSimilarity similarity(MatchFieldsFor(spec.kind), 0.75);

  PprlMatcher matcher(blocker.get(), 0.9);
  LinkageEngine engine(blocker.get(), &matcher, similarity);
  ASSERT_TRUE(engine.BuildIndex(workload.a).ok());
  const GroundTruth truth(workload.a);
  auto report = engine.ResolveAll(workload.q, truth);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->quality.recall, 0.5) << report->quality.recall;
  EXPECT_GT(report->quality.precision, 0.5) << report->quality.precision;
}

TEST(PprlMatcherTest, ThresholdSweepTradesRecallForPrecision) {
  datagen::WorkloadSpec spec;
  spec.kind = DatasetKind::kNcvr;
  spec.num_entities = 120;
  spec.copies_per_entity = 5;
  spec.seed = 7;
  const datagen::Workload workload = datagen::MakeWorkload(spec);
  auto blocker = MakeLshBlocker(spec.kind);
  const RecordSimilarity similarity(MatchFieldsFor(spec.kind), 0.75);
  const GroundTruth truth(workload.a);

  double previous_recall = 2.0;
  for (double threshold : {0.80, 0.90, 0.97}) {
    PprlMatcher matcher(blocker.get(), threshold);
    LinkageEngine engine(blocker.get(), &matcher, similarity);
    ASSERT_TRUE(engine.BuildIndex(workload.a).ok());
    auto report = engine.ResolveAll(workload.q, truth);
    ASSERT_TRUE(report.ok());
    // Tightening the Hamming threshold can only shrink the result set.
    EXPECT_LE(report->quality.recall, previous_recall + 1e-9);
    previous_recall = report->quality.recall;
  }
}

TEST(PprlMatcherTest, EmptyIndexResolvesEmpty) {
  auto blocker = MakeLshBlocker(DatasetKind::kLab);
  PprlMatcher matcher(blocker.get(), 0.9);
  Record query;
  query.id = 1;
  query.fields = {"ALBUMIN", "4.2", "2015"};
  KeyScratch keys;
  blocker->ExtractKeys(query, &keys);
  QueryScratch scratch;
  ASSERT_TRUE(matcher.ResolveInto(query, keys, &scratch).ok());
  EXPECT_TRUE(scratch.matches.empty());
}

}  // namespace
}  // namespace sketchlink
