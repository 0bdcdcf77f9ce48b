// BlockSketch is SBlockSketch with mu = infinity (paper Algorithms 3 and 4):
// fed the same stream, an SBlockSketch whose live table never fills (and
// whose spill store is therefore never touched) must return the same
// candidate ids for every query and count the same work as BlockSketch,
// unsharded and striped, on every dataset kind.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/presets.h"
#include "core/block_sketch.h"
#include "core/sblock_sketch.h"
#include "core/sharded_sketch.h"
#include "datagen/generators.h"
#include "kv/db.h"
#include "kv/env.h"

namespace sketchlink {
namespace {

using datagen::DatasetKind;

/// One blocking-key operation of the stream: a key, the record's key values
/// and its id.
struct KeyedOp {
  std::string key;
  std::string key_values;
  RecordId id;
};

std::vector<KeyedOp> Flatten(const Blocker& blocker, const Dataset& data) {
  std::vector<KeyedOp> ops;
  for (const Record& record : data.records()) {
    const std::string key_values = blocker.KeyValues(record);
    for (std::string& key : blocker.Keys(record)) {
      ops.push_back(KeyedOp{std::move(key), key_values, record.id});
    }
  }
  return ops;
}

class SketchEquivalenceTest : public ::testing::TestWithParam<DatasetKind> {
 protected:
  void SetUp() override {
    datagen::WorkloadSpec spec;
    spec.kind = GetParam();
    spec.num_entities = 500;
    spec.copies_per_entity = 8;
    spec.seed = 28;
    const datagen::Workload workload = datagen::MakeWorkload(spec);
    const auto blocker = MakeStandardBlocker(GetParam());
    inserts_ = Flatten(*blocker, workload.a);
    queries_ = Flatten(*blocker, workload.q);

    dir_ = ::testing::TempDir() + "/sketch_equivalence_" +
           std::string(datagen::DatasetKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(kv::RemoveDirRecursively(dir_).ok());
    auto db = kv::Db::Open(dir_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  void TearDown() override {
    db_.reset();
    (void)kv::RemoveDirRecursively(dir_);
  }

  static SBlockSketchOptions Unbounded() {
    SBlockSketchOptions options;
    options.mu = SIZE_MAX;
    return options;
  }

  std::vector<KeyedOp> inserts_;
  std::vector<KeyedOp> queries_;
  std::string dir_;
  std::unique_ptr<kv::Db> db_;
};

TEST_P(SketchEquivalenceTest, UnboundedSBlockSketchIsBlockSketch) {
  BlockSketch block{BlockSketchOptions()};
  SBlockSketch sblock(Unbounded(), db_.get());
  for (const KeyedOp& op : inserts_) {
    block.Insert(op.key, op.key_values, op.id);
    ASSERT_TRUE(sblock.Insert(op.key, op.key_values, op.id).ok());
  }
  for (const KeyedOp& op : queries_) {
    auto got = sblock.Candidates(op.key, op.key_values);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->ToVector(),
              block.Candidates(op.key, op.key_values).ToVector())
        << "key=" << op.key << " values=" << op.key_values;
  }
  const auto want = block.stats();
  const auto have = sblock.stats();
  ASSERT_EQ(have.representative_comparisons, want.representative_comparisons);
  ASSERT_EQ(have.inserts, want.inserts);
  ASSERT_EQ(have.queries, want.queries);
  ASSERT_EQ(have.candidates_returned, want.candidates_returned);
  ASSERT_EQ(have.evictions, 0u);
}

TEST_P(SketchEquivalenceTest, StripedUnboundedSBlockSketchIsBlockSketch) {
  constexpr size_t kStripes = 16;
  ShardedBlockSketch block(BlockSketchOptions(), KeyDistanceFn(), kStripes);
  ShardedSBlockSketch sblock(Unbounded(), db_.get(), KeyDistanceFn(),
                             kStripes);
  std::vector<SketchInsert> batch;
  batch.reserve(inserts_.size());
  for (const KeyedOp& op : inserts_) {
    batch.push_back(SketchInsert{&op.key, &op.key_values, op.id});
  }
  block.InsertBatch(batch, nullptr);
  ASSERT_TRUE(sblock.InsertBatch(batch, nullptr).ok());
  for (const KeyedOp& op : queries_) {
    auto got = sblock.Candidates(op.key, op.key_values);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->ToVector(),
              block.Candidates(op.key, op.key_values).ToVector())
        << "key=" << op.key << " values=" << op.key_values;
  }
  const auto want = block.stats();
  const auto have = sblock.stats();
  ASSERT_EQ(have.representative_comparisons, want.representative_comparisons);
  ASSERT_EQ(have.inserts, want.inserts);
  ASSERT_EQ(have.queries, want.queries);
  ASSERT_EQ(have.candidates_returned, want.candidates_returned);
  ASSERT_EQ(have.evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Datasets, SketchEquivalenceTest,
                         ::testing::Values(DatasetKind::kDblp,
                                           DatasetKind::kNcvr,
                                           DatasetKind::kLab),
                         [](const auto& info) {
                           return std::string(
                               datagen::DatasetKindName(info.param));
                         });

}  // namespace
}  // namespace sketchlink
