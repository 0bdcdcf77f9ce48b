// Differential test for the SoA representative layout (DESIGN.md §12): the
// streamed structure-of-arrays scoring path must be observationally
// IDENTICAL to the legacy gather path (BatchCandidate pointer-chasing),
// which stays in the tree as the oracle behind
// SketchPolicy::SetGatherRoutingForTesting. Both paths are driven through
// the full pipeline — datagen workload -> blocking -> sketch -> engine —
// and must produce bit-identical per-query result sets, comparison
// counters, and quality metrics at every thread count. Both kernel paths
// score Jaro-Winkler through the query's pattern (the representatives carry
// none), so the wire test also builds a third sketch on the scalar
// reference distance, which indexes nothing, and requires the same blocks.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/presets.h"
#include "core/block_sketch.h"
#include "datagen/generators.h"
#include "linkage/engine.h"
#include "linkage/sketch_matchers.h"

namespace sketchlink {
namespace {

using datagen::DatasetKind;

datagen::Workload MakeCrosscheckWorkload(DatasetKind kind) {
  datagen::WorkloadSpec spec;
  spec.kind = kind;
  spec.num_entities = 160;
  spec.copies_per_entity = 6;
  spec.max_perturb_ops = 3;
  spec.seed = 20260809;
  return datagen::MakeWorkload(spec);
}

struct RunResult {
  LinkageReport report;
  std::vector<std::vector<RecordId>> per_query;
};

/// One full pipeline run with the routing implementation pinned: gather
/// oracle when `gather`, default SoA otherwise. The flag is process-global,
/// so it is set for the whole run (build + resolve) and restored by the
/// fixture's TearDown.
RunResult RunPipeline(const datagen::Workload& workload,
                      const GroundTruth& truth, DatasetKind kind,
                      size_t threads, bool gather) {
  SketchPolicy::SetGatherRoutingForTesting(gather);
  auto blocker = MakeStandardBlocker(kind);
  RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
  RecordStore store;
  BlockSketchMatcher matcher(BlockSketchOptions(), similarity, &store);
  EngineOptions options;
  options.num_threads = threads;
  LinkageEngine engine(blocker.get(), &matcher, similarity, options);

  RunResult out;
  EXPECT_TRUE(engine.BuildIndex(workload.a).ok());
  auto report = engine.ResolveAll(workload.q, truth);
  EXPECT_TRUE(report.ok());
  if (report.ok()) out.report = *report;

  out.per_query.reserve(workload.q.size());
  for (const Record& query : workload.q.records()) {
    auto matches = engine.ResolveOne(query);
    EXPECT_TRUE(matches.ok());
    out.per_query.push_back(matches.ok() ? *matches
                                         : std::vector<RecordId>{});
  }
  return out;
}

class LayoutCrosscheckTest : public ::testing::TestWithParam<DatasetKind> {
 protected:
  void TearDown() override { SketchPolicy::SetGatherRoutingForTesting(false); }
};

TEST_P(LayoutCrosscheckTest, SoAMatchesGatherOracleAcrossThreadsAndTiers) {
  const DatasetKind kind = GetParam();
  const datagen::Workload workload = MakeCrosscheckWorkload(kind);
  const GroundTruth truth(workload.a);

  // The oracle is built once on the gather path at one thread; the SoA runs
  // at every thread count must match it field for field.
  const RunResult oracle =
      RunPipeline(workload, truth, kind, /*threads=*/1, /*gather=*/true);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const RunResult soa =
        RunPipeline(workload, truth, kind, threads, /*gather=*/false);

    EXPECT_EQ(soa.report.comparisons, oracle.report.comparisons)
        << "threads=" << threads;
    EXPECT_EQ(soa.report.quality.true_pairs, oracle.report.quality.true_pairs)
        << "threads=" << threads;
    EXPECT_EQ(soa.report.quality.reported_pairs,
              oracle.report.quality.reported_pairs)
        << "threads=" << threads;
    EXPECT_EQ(soa.report.quality.correct_pairs,
              oracle.report.quality.correct_pairs)
        << "threads=" << threads;
    // Derived doubles must be bit-identical, not just close: both paths
    // compute them from the same integer counts.
    EXPECT_EQ(soa.report.quality.recall, oracle.report.quality.recall)
        << "threads=" << threads;
    EXPECT_EQ(soa.report.quality.precision, oracle.report.quality.precision)
        << "threads=" << threads;
    EXPECT_EQ(soa.report.quality.f1, oracle.report.quality.f1)
        << "threads=" << threads;

    ASSERT_EQ(soa.per_query.size(), oracle.per_query.size());
    for (size_t i = 0; i < soa.per_query.size(); ++i) {
      ASSERT_EQ(soa.per_query[i], oracle.per_query[i])
          << "threads=" << threads << " query#" << i;
    }
  }
}

/// Restores the process-global routing flag even when an ASSERT returns out
/// of the test early.
struct RoutingStateGuard {
  ~RoutingStateGuard() { SketchPolicy::SetGatherRoutingForTesting(false); }
};

TEST(LayoutWireEncodeTest, WireEncodesIdenticalAcrossRoutingPaths) {
  // The SoA chunk is the immutable-after-publish unit, but the wire format
  // is the classic SketchBlock encode: a sketch built on the SoA path must
  // serialize every block bit-for-bit like one built on the gather oracle,
  // and like one routed by text::JaroWinklerDistance(key values, rep) in
  // the scalar loop (an explicit KeyDistanceFn pins that loop).
  RoutingStateGuard guard;
  const datagen::Workload workload =
      MakeCrosscheckWorkload(DatasetKind::kNcvr);
  auto blocker = MakeStandardBlocker(DatasetKind::kNcvr);

  SketchPolicy::SetGatherRoutingForTesting(true);
  BlockSketch oracle{BlockSketchOptions()};
  for (const Record& record : workload.a.records()) {
    oracle.Insert(blocker->Key(record), blocker->KeyValues(record), record.id);
  }
  SketchPolicy::SetGatherRoutingForTesting(false);
  BlockSketch soa{BlockSketchOptions()};
  BlockSketch scalar{BlockSketchOptions(), DefaultKeyDistance()};
  for (const Record& record : workload.a.records()) {
    soa.Insert(blocker->Key(record), blocker->KeyValues(record), record.id);
    scalar.Insert(blocker->Key(record), blocker->KeyValues(record), record.id);
  }

  ASSERT_EQ(soa.num_blocks(), oracle.num_blocks());
  ASSERT_EQ(scalar.num_blocks(), oracle.num_blocks());
  for (const Record& record : workload.a.records()) {
    const std::string key = blocker->Key(record);
    auto oracle_block = oracle.FindBlock(key);
    auto soa_block = soa.FindBlock(key);
    auto scalar_block = scalar.FindBlock(key);
    ASSERT_NE(oracle_block, nullptr) << "key=" << key;
    ASSERT_NE(soa_block, nullptr) << "key=" << key;
    ASSERT_NE(scalar_block, nullptr) << "key=" << key;
    std::string oracle_bytes;
    oracle_block->EncodeTo(&oracle_bytes);
    std::string soa_bytes;
    soa_block->EncodeTo(&soa_bytes);
    ASSERT_EQ(soa_bytes, oracle_bytes) << "wire encode differs, key=" << key;
    std::string scalar_bytes;
    scalar_block->EncodeTo(&scalar_bytes);
    ASSERT_EQ(scalar_bytes, oracle_bytes)
        << "scalar routing differs, key=" << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, LayoutCrosscheckTest,
                         ::testing::Values(DatasetKind::kDblp,
                                           DatasetKind::kNcvr),
                         [](const auto& info) {
                           return std::string(
                               datagen::DatasetKindName(info.param));
                         });

}  // namespace
}  // namespace sketchlink
