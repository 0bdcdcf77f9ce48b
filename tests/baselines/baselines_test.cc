#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/edge_ordering.h"
#include "baselines/inv_index.h"
#include "baselines/map_summary.h"
#include "baselines/oracle.h"
#include "linkage/record_store.h"

namespace sketchlink {
namespace {

Record MakeRecord(RecordId id, uint64_t entity,
                  std::vector<std::string> fields) {
  Record record;
  record.id = id;
  record.entity_id = entity;
  record.fields = std::move(fields);
  return record;
}

TEST(MapSummaryTest, ExactMembership) {
  MapSummary summary;
  summary.Insert("A");
  summary.Insert("B");
  summary.Insert("A");
  EXPECT_TRUE(summary.Query("A"));
  EXPECT_TRUE(summary.Query("B"));
  EXPECT_FALSE(summary.Query("C"));
  EXPECT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary.inserts(), 3u);
}

TEST(MapSummaryTest, MemoryGrowsLinearly) {
  MapSummary summary;
  const size_t empty = summary.ApproximateMemoryUsage();
  for (int i = 0; i < 10000; ++i) {
    summary.Insert("some-blocking-key-" + std::to_string(i));
  }
  EXPECT_GT(summary.ApproximateMemoryUsage(), empty + 10000 * 8);
}

TEST(OracleTest, AnswersFromEntityIds) {
  Oracle oracle;
  Dataset dataset;
  dataset.Add(MakeRecord(1, 100, {}));
  dataset.Add(MakeRecord(2, 100, {}));
  dataset.Add(MakeRecord(3, 200, {}));
  oracle.RegisterDataset(dataset);
  EXPECT_TRUE(oracle.Matches(1, 2));
  EXPECT_FALSE(oracle.Matches(1, 3));
  EXPECT_FALSE(oracle.Matches(1, 999));  // unknown record
  EXPECT_EQ(oracle.queries(), 3u);
}

class InvTest : public ::testing::Test {
 protected:
  InvTest()
      : similarity_({0, 1}, 0.75),
        matcher_(InvOptions(), similarity_, &store_) {}

  Status Insert(const Record& record) {
    return matcher_.Insert(record, {}, "");
  }
  Result<std::vector<RecordId>> Resolve(const Record& query) {
    KeyScratch keys;
    QueryScratch scratch;
    SKETCHLINK_RETURN_IF_ERROR(matcher_.ResolveInto(query, keys, &scratch));
    return std::move(scratch.matches);
  }

  RecordStore store_;
  RecordSimilarity similarity_;
  InvIndexMatcher matcher_;
};

TEST_F(InvTest, FindsExactDuplicates) {
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"JAMES", "JOHNSON"})).ok());
  ASSERT_TRUE(Insert(MakeRecord(2, 2, {"MARY", "WILLIAMS"})).ok());
  auto matches = Resolve(MakeRecord(100, 1, {"JAMES", "JOHNSON"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0], 1u);
}

TEST_F(InvTest, FindsPhoneticVariants) {
  // SMITH / SMYTH share the metaphone bucket; the pre-computed similarity
  // clears both thresholds.
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"JAMES", "SMITH"})).ok());
  auto matches = Resolve(MakeRecord(100, 1, {"JAMES", "SMYTH"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
}

TEST_F(InvTest, MissesPhoneticallyBrokenTypos) {
  // A typo in the first letter changes the metaphone code, the documented
  // weakness that costs INV recall in Fig. 7a.
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"JAMES", "KONES"})).ok());
  auto matches = Resolve(MakeRecord(100, 1, {"JAMES", "JONES"}));
  ASSERT_TRUE(matches.ok());
  // "KONES" encodes differently from "JONES": the surname field cannot
  // contribute, and one matching field out of two is below 0.75.
  EXPECT_TRUE(matches->empty());
}

TEST_F(InvTest, PrecomputationIsReused) {
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"JAMES", "SMITH"})).ok());
  ASSERT_TRUE(Insert(MakeRecord(2, 2, {"JAMES", "SMYTH"})).ok());
  EXPECT_GT(matcher_.build_comparisons(), 0u);
  const uint64_t before = matcher_.query_comparisons();
  auto matches = Resolve(MakeRecord(100, 1, {"JAMES", "SMITH"}));
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(matcher_.cache_hits(), 0u);
  // Query values that already exist in the index hit the cache.
  EXPECT_EQ(matcher_.query_comparisons(), before);
}

TEST_F(InvTest, CrossFieldPollutionCreatesCandidates) {
  // A record whose SURNAME is "JAMES" collides with queries whose GIVEN
  // name is "JAMES" — the shared-index ambiguity the paper highlights.
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"JAMES", "JAMES"})).ok());
  auto matches = Resolve(MakeRecord(100, 2, {"JAMES", "JAMES"}));
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);  // reported despite different entity
}

TEST_F(InvTest, EmptyIndexResolvesEmpty) {
  auto matches = Resolve(MakeRecord(1, 1, {"ANY", "ONE"}));
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

class EoTest : public ::testing::Test {
 protected:
  EoTest()
      : similarity_({0, 1}, 0.75),
        matcher_(EoOptions(), similarity_, &store_, &oracle_) {}

  Status Insert(const Record& record, const std::string& key) {
    return matcher_.Insert(record, {key}, "");
  }
  Result<std::vector<RecordId>> Resolve(const Record& query,
                                        const std::string& key) {
    KeyScratch keys;
    keys.keys = {key};
    keys.num_keys = 1;
    QueryScratch scratch;
    SKETCHLINK_RETURN_IF_ERROR(matcher_.ResolveInto(query, keys, &scratch));
    return std::move(scratch.matches);
  }

  RecordStore store_;
  Oracle oracle_;
  RecordSimilarity similarity_;
  EdgeOrderingMatcher matcher_;
};

TEST_F(EoTest, SubmitsOnlySimilarPairsToOracle) {
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"JAMES", "JOHNSON"}), "J").ok());
  ASSERT_TRUE(Insert(MakeRecord(2, 2, {"XQW", "ZVB"}), "J").ok());
  auto formulated = Resolve(MakeRecord(100, 1, {"JAMES", "JOHNSON"}), "J");
  ASSERT_TRUE(formulated.ok());
  // EO formulates (and is scored on) every pair in the block...
  EXPECT_EQ(formulated->size(), 2u);
  // ...but spends oracle budget only on the edge above the estimate floor.
  EXPECT_EQ(matcher_.oracle_queries(), 1u);
}

TEST_F(EoTest, ComparesEveryBlockMember) {
  // EO's cost profile: similarity is computed for ALL block members even if
  // none is submitted.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        Insert(MakeRecord(i + 1, i + 1, {"FILLER" + std::to_string(i),
                                         "OTHER"}),
               "BLOCK")
            .ok());
  }
  const uint64_t before = matcher_.comparisons();
  auto submitted =
      Resolve(MakeRecord(100, 999, {"UNRELATED", "QUERY"}), "BLOCK");
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(matcher_.comparisons() - before, 50u);
}

TEST_F(EoTest, TransitivityskipsRedundantOracleCalls) {
  // Two records already clustered (previous resolutions) need one oracle
  // query for the pair, not two.
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"JAMES", "JOHNSON"}), "J").ok());
  ASSERT_TRUE(Insert(MakeRecord(2, 1, {"JAMES", "JOHNSON"}), "J").ok());
  auto first = Resolve(MakeRecord(100, 1, {"JAMES", "JOHNSON"}), "J");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 2u);
  // Records 1 and 2 are now clustered together (both matched query 100). A
  // second query forms two edges but needs only one oracle call: the second
  // edge's verdict follows transitively.
  const uint64_t queries_before = matcher_.oracle_queries();
  auto second = Resolve(MakeRecord(101, 1, {"JAMES", "JOHNSON"}), "J");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 2u);  // data records 1 and 2 submitted
  EXPECT_GT(matcher_.transitivity_skips(), 0u);
  EXPECT_EQ(matcher_.oracle_queries() - queries_before, 1u);
}

TEST_F(EoTest, DissimilarPairsNotSubmittedToOracle) {
  ASSERT_TRUE(Insert(MakeRecord(1, 1, {"AAAA", "BBBB"}), "K").ok());
  auto formulated = Resolve(MakeRecord(100, 2, {"ZZZZ", "QQQQ"}), "K");
  ASSERT_TRUE(formulated.ok());
  EXPECT_EQ(formulated->size(), 1u);  // compared, hence in the result set
  EXPECT_EQ(matcher_.oracle_queries(), 0u);  // but never submitted
}

TEST_F(EoTest, EmptyBlockResolvesEmpty) {
  auto submitted = Resolve(MakeRecord(1, 1, {"A", "B"}), "NOSUCH");
  ASSERT_TRUE(submitted.ok());
  EXPECT_TRUE(submitted->empty());
}

TEST(UnionFindTest, BasicConnectivity) {
  UnionFind uf;
  EXPECT_FALSE(uf.Connected(1, 2));
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(1, 2));
  uf.Union(2, 3);
  EXPECT_TRUE(uf.Connected(1, 3));
  EXPECT_FALSE(uf.Connected(1, 4));
  uf.Union(4, 5);
  uf.Union(3, 5);
  EXPECT_TRUE(uf.Connected(1, 4));
}

TEST(UnionFindTest, SelfUnionIsNoOp) {
  UnionFind uf;
  uf.Union(7, 7);
  EXPECT_TRUE(uf.Connected(7, 7));
}

}  // namespace
}  // namespace sketchlink
