// End-to-end integration tests: generator -> blocking -> summarization ->
// matching -> quality scoring, exercising the same pipeline the benchmark
// harness uses for the paper's Figs. 7-9.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/edge_ordering.h"
#include "baselines/inv_index.h"
#include "baselines/oracle.h"
#include "blocking/presets.h"
#include "core/block_sketch.h"
#include "datagen/generators.h"
#include "kv/env.h"
#include "linkage/engine.h"
#include "linkage/sketch_matchers.h"

namespace sketchlink {
namespace {

using datagen::DatasetKind;

struct Pipeline {
  datagen::Workload workload;
  std::unique_ptr<StandardBlocker> blocker;
  RecordSimilarity similarity;
  GroundTruth truth;

  Pipeline(DatasetKind kind, size_t entities, size_t copies)
      : workload(datagen::MakeWorkload([&] {
          datagen::WorkloadSpec spec;
          spec.kind = kind;
          spec.num_entities = entities;
          spec.copies_per_entity = copies;
          spec.max_perturb_ops = 3;
          spec.seed = 4242;
          return spec;
        }())),
        blocker(MakeStandardBlocker(kind)),
        similarity(MatchFieldsFor(kind), 0.75),
        truth(workload.a) {}

  LinkageReport Run(OnlineMatcher* matcher) {
    LinkageEngine engine(blocker.get(), matcher, similarity);
    EXPECT_TRUE(engine.BuildIndex(workload.a).ok());
    auto report = engine.ResolveAll(workload.q, truth);
    EXPECT_TRUE(report.ok());
    return report.ok() ? *report : LinkageReport{};
  }
};

TEST(IntegrationTest, BlockSketchEndToEndQuality) {
  Pipeline pipeline(DatasetKind::kNcvr, 150, 8);
  RecordStore store;
  BlockSketchMatcher matcher(BlockSketchOptions(), pipeline.similarity,
                             &store);
  const LinkageReport report = pipeline.Run(&matcher);
  // Standard blocking on perturbed data cannot be perfect, but the sketch
  // must recover a solid fraction of true pairs with high precision.
  EXPECT_GT(report.quality.recall, 0.35) << report.quality.recall;
  EXPECT_GT(report.quality.precision, 0.8) << report.quality.precision;
  EXPECT_GT(report.comparisons, 0u);
}

TEST(IntegrationTest, BlockSketchRecallTracksNaiveScanCheaply) {
  // The naive full-block scan verifies every block member with the
  // similarity threshold; BlockSketch reports its target sub-block without
  // per-candidate verification (Sec. 5 semantics). Its recall must track
  // the block contents (Lemma 5.1's 1 - delta of the blocking ceiling)
  // while issuing far fewer similarity computations.
  Pipeline pipeline(DatasetKind::kNcvr, 120, 8);
  RecordStore naive_store;
  NaiveBlockMatcher naive(pipeline.similarity, &naive_store);
  const LinkageReport naive_report = pipeline.Run(&naive);

  RecordStore sketch_store;
  BlockSketchMatcher sketch(BlockSketchOptions(), pipeline.similarity,
                            &sketch_store);
  const LinkageReport sketch_report = pipeline.Run(&sketch);

  EXPECT_GT(sketch_report.quality.recall,
            naive_report.quality.recall * 0.85);
}

TEST(IntegrationTest, EoRecallAtLeastBlockSketchAndPrecisionBelow) {
  // Fig. 7a/7b: EO formulates every pair in the target block, so its recall
  // bounds BlockSketch's from above; Fig. 7d: under LSH blocking (where
  // blocks are impure) BlockSketch's sub-block routing buys it clearly
  // better precision than EO's exhaustive formulation.
  Pipeline pipeline(DatasetKind::kNcvr, 400, 10);
  auto lsh = MakeLshBlocker(DatasetKind::kNcvr);

  RecordStore sketch_store;
  BlockSketchMatcher sketch(BlockSketchOptions(), pipeline.similarity,
                            &sketch_store);
  LinkageEngine sketch_engine(lsh.get(), &sketch, pipeline.similarity);
  ASSERT_TRUE(sketch_engine.BuildIndex(pipeline.workload.a).ok());
  auto sketch_report =
      sketch_engine.ResolveAll(pipeline.workload.q, pipeline.truth);
  ASSERT_TRUE(sketch_report.ok());

  RecordStore eo_store;
  Oracle oracle;
  EdgeOrderingMatcher eo(EoOptions(), pipeline.similarity, &eo_store,
                         &oracle);
  LinkageEngine eo_engine(lsh.get(), &eo, pipeline.similarity);
  ASSERT_TRUE(eo_engine.BuildIndex(pipeline.workload.a).ok());
  auto eo_report = eo_engine.ResolveAll(pipeline.workload.q, pipeline.truth);
  ASSERT_TRUE(eo_report.ok());

  EXPECT_GE(eo_report->quality.recall, sketch_report->quality.recall - 0.02);
  EXPECT_GT(sketch_report->quality.precision, eo_report->quality.precision);
}

TEST(IntegrationTest, InvRecallBelowBlockSketch) {
  // Fig. 7a: INV trails on recall because double metaphone cannot bridge
  // heavily perturbed values.
  Pipeline pipeline(DatasetKind::kNcvr, 120, 8);

  RecordStore sketch_store;
  BlockSketchMatcher sketch(BlockSketchOptions(), pipeline.similarity,
                            &sketch_store);
  const LinkageReport sketch_report = pipeline.Run(&sketch);

  RecordStore inv_store;
  InvIndexMatcher inv(InvOptions(), pipeline.similarity, &inv_store);
  const LinkageReport inv_report = pipeline.Run(&inv);

  EXPECT_LT(inv_report.quality.recall, sketch_report.quality.recall);
}

TEST(IntegrationTest, LshBlockingBeatsStandardRecallForBlockSketch) {
  // Fig. 7b: redundancy lifts recall.
  Pipeline pipeline(DatasetKind::kNcvr, 100, 6);

  RecordStore std_store;
  BlockSketchMatcher std_matcher(BlockSketchOptions(), pipeline.similarity,
                                 &std_store);
  const LinkageReport std_report = pipeline.Run(&std_matcher);

  auto lsh = MakeLshBlocker(DatasetKind::kNcvr);
  RecordStore lsh_store;
  BlockSketchMatcher lsh_matcher(BlockSketchOptions(), pipeline.similarity,
                                 &lsh_store);
  LinkageEngine engine(lsh.get(), &lsh_matcher, pipeline.similarity);
  ASSERT_TRUE(engine.BuildIndex(pipeline.workload.a).ok());
  auto lsh_report = engine.ResolveAll(pipeline.workload.q, pipeline.truth);
  ASSERT_TRUE(lsh_report.ok());

  EXPECT_GT(lsh_report->quality.recall, std_report.quality.recall);
}

TEST(IntegrationTest, SBlockSketchMatchesBlockSketchQuality) {
  // Fig. 9: the streaming variant trades time (spills) but not quality.
  Pipeline pipeline(DatasetKind::kLab, 100, 6);

  RecordStore mem_store;
  BlockSketchMatcher mem_matcher(BlockSketchOptions(), pipeline.similarity,
                                 &mem_store);
  const LinkageReport mem_report = pipeline.Run(&mem_matcher);

  const std::string dir = ::testing::TempDir() + "/integration_sbs";
  ASSERT_TRUE(kv::RemoveDirRecursively(dir).ok());
  // Removes the store after `db` closes, which is after the matcher below
  // has joined its background spills into `db`.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() { (void)kv::RemoveDirRecursively(dir); }
  } remove_on_exit{dir};
  auto db = kv::Db::Open(dir);
  ASSERT_TRUE(db.ok());
  SBlockSketchOptions streaming_options;
  streaming_options.mu = 16;  // tiny: forces constant spilling
  RecordStore stream_store;
  SBlockSketchMatcher stream_matcher(streaming_options, db->get(),
                                     pipeline.similarity, &stream_store);
  const LinkageReport stream_report = pipeline.Run(&stream_matcher);

  EXPECT_NEAR(stream_report.quality.recall, mem_report.quality.recall, 0.05);
  EXPECT_NEAR(stream_report.quality.precision, mem_report.quality.precision,
              0.05);
}

class AllKindsEndToEnd : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(AllKindsEndToEnd, BlockSketchProducesUsefulResults) {
  Pipeline pipeline(GetParam(), 100, 6);
  RecordStore store;
  BlockSketchMatcher matcher(BlockSketchOptions(), pipeline.similarity,
                             &store);
  const LinkageReport report = pipeline.Run(&matcher);
  // LAB is the paper's hardest data set (Sec. 7.2): its 6-char blocking
  // keys and short weakly-discriminative fields depress both rates relative
  // to DBLP/NCVR, so its floor is lower here too.
  const bool lab = GetParam() == DatasetKind::kLab;
  EXPECT_GT(report.quality.recall, lab ? 0.2 : 0.3)
      << datagen::DatasetKindName(GetParam());
  EXPECT_GT(report.quality.precision, lab ? 0.15 : 0.5)
      << datagen::DatasetKindName(GetParam());
  EXPECT_GT(report.quality.f1, lab ? 0.15 : 0.3);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllKindsEndToEnd,
                         ::testing::Values(DatasetKind::kDblp,
                                           DatasetKind::kNcvr,
                                           DatasetKind::kLab));

}  // namespace
}  // namespace sketchlink
