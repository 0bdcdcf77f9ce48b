#include "core/sblock_sketch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "kv/env.h"
#include "kv/fault_injection_env.h"

namespace sketchlink {
namespace {

class SBlockSketchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/sbs_test_" +
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

  SBlockSketchOptions Options(size_t mu) {
    SBlockSketchOptions options;
    options.mu = mu;
    options.w = 1.5;
    options.sketch.lambda = 3;
    options.sketch.delta = 0.1;
    options.sketch.theta = 0.25;
    options.sketch.seed = 0x99;
    return options;
  }

  std::string dir_;
  std::unique_ptr<kv::Db> db_;
};

TEST_F(SBlockSketchTest, EvictionScoreFormula) {
  // es = e^(w*xi - alpha); we test the (monotone) log form.
  // Fig. 5's example: k4 (xi=0, alpha=3) evicted before k2 (xi=6, alpha=10).
  const double k4 = SBlockSketch::EvictionScore(1.5, 0, 3);
  const double k2 = SBlockSketch::EvictionScore(1.5, 6, 10);
  const double k3 = SBlockSketch::EvictionScore(1.5, 1, 0);
  const double k1 = SBlockSketch::EvictionScore(1.5, 8, 2);
  EXPECT_LT(k4, k2);
  EXPECT_LT(k2, k3);
  EXPECT_LT(k3, k1);
  EXPECT_DOUBLE_EQ(k4, -3.0);
  EXPECT_DOUBLE_EQ(k2, -1.0);
  EXPECT_DOUBLE_EQ(k3, 1.5);
  EXPECT_DOUBLE_EQ(k1, 10.0);
}

TEST_F(SBlockSketchTest, InsertAndQueryWithoutEviction) {
  SBlockSketch sketch(Options(100), db_.get());
  ASSERT_TRUE(sketch.Insert("K1", "K1#VALUE", 1).ok());
  ASSERT_TRUE(sketch.Insert("K1", "K1#VALUE", 2).ok());
  auto candidates = sketch.Candidates("K1", "K1#VALUE");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 2u);
  EXPECT_EQ(sketch.num_live_blocks(), 1u);
  EXPECT_EQ(sketch.stats().evictions, 0u);
}

TEST_F(SBlockSketchTest, LiveBlocksNeverExceedMu) {
  const size_t mu = 8;
  SBlockSketch sketch(Options(mu), db_.get());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        sketch.Insert("KEY" + std::to_string(i), "V" + std::to_string(i), i)
            .ok());
    EXPECT_LE(sketch.num_live_blocks(), mu);
  }
  EXPECT_EQ(sketch.stats().evictions, 100u - mu);
}

TEST_F(SBlockSketchTest, EvictedBlocksAreFaultedBackIntact) {
  const size_t mu = 4;
  SBlockSketch sketch(Options(mu), db_.get());
  // Fill block A with members, then push it out with fresh blocks.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sketch.Insert("AAA", "AAA#V", 100 + i).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sketch.Insert("FILLER" + std::to_string(i), "F", i).ok());
  }
  // AAA must have been spilled by now; querying it reloads from the KV.
  auto candidates = sketch.Candidates("AAA", "AAA#V");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 5u);
  EXPECT_GT(sketch.stats().disk_loads, 0u);
}

TEST_F(SBlockSketchTest, HotBlocksSurviveEviction) {
  const size_t mu = 5;
  SBlockSketch sketch(Options(mu), db_.get());
  // Make HOT very selective (high xi).
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sketch.Insert("HOT", "HOT#V", i).ok());
  }
  // Stream many one-shot cold blocks.
  uint64_t loads_before = sketch.stats().disk_loads;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sketch.Insert("COLD" + std::to_string(i), "C", 1000 + i).ok());
  }
  // HOT's eviction status (w*50 - alpha) dwarfs any cold block's; it should
  // never have been spilled, so touching it now causes no disk load.
  auto candidates = sketch.Candidates("HOT", "HOT#V");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(sketch.stats().disk_loads, loads_before);
  EXPECT_EQ(candidates->size(), 50u);
}

TEST_F(SBlockSketchTest, MemoryBoundedByMu) {
  // Problem Statement 3: memory stays O(mu * lambda) no matter how many
  // blocks stream through.
  const size_t mu = 16;
  SBlockSketch sketch(Options(mu), db_.get());
  size_t peak = 0;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        sketch
            .Insert("BLOCK" + std::to_string(i), "VAL" + std::to_string(i), i)
            .ok());
    peak = std::max(peak, sketch.ApproximateMemoryUsage());
  }
  // A full table at i=mu should cost about the same as at i=300.
  EXPECT_LE(sketch.ApproximateMemoryUsage(), peak);
  EXPECT_LE(sketch.num_live_blocks(), mu);
  // And far less than an unbounded variant would: rough sanity ceiling.
  EXPECT_LT(sketch.ApproximateMemoryUsage(), 200u * 1024u);
}

TEST_F(SBlockSketchTest, SurvivorsAgeOnEviction) {
  const size_t mu = 3;
  SBlockSketch sketch(Options(mu), db_.get());
  ASSERT_TRUE(sketch.Insert("A", "A", 1).ok());
  ASSERT_TRUE(sketch.Insert("B", "B", 2).ok());
  ASSERT_TRUE(sketch.Insert("C", "C", 3).ok());
  // Each new block now evicts the stalest untouched one: A first (all have
  // xi=1 but ages tie-break via map order; just assert global invariants).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sketch.Insert("NEW" + std::to_string(i), "N", 10 + i).ok());
  }
  EXPECT_EQ(sketch.num_live_blocks(), mu);
  EXPECT_EQ(sketch.stats().evictions, 10u);
}

TEST_F(SBlockSketchTest, LruPolicyEvictsLeastRecentlyUsed) {
  SBlockSketchOptions options = Options(2);
  options.policy = EvictionPolicy::kLru;
  SBlockSketch sketch(options, db_.get());
  ASSERT_TRUE(sketch.Insert("OLD", "O", 1).ok());
  ASSERT_TRUE(sketch.Insert("FRESH", "F", 2).ok());
  // Touch OLD so FRESH becomes the LRU victim.
  ASSERT_TRUE(sketch.Insert("OLD", "O", 3).ok());
  ASSERT_TRUE(sketch.Insert("NEWCOMER", "N", 4).ok());
  // OLD should still be live (no disk load when touched).
  const uint64_t loads_before = sketch.stats().disk_loads;
  auto candidates = sketch.Candidates("OLD", "O");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(sketch.stats().disk_loads, loads_before);
}

TEST_F(SBlockSketchTest, FifoPolicyEvictsOldestAdmission) {
  SBlockSketchOptions options = Options(2);
  options.policy = EvictionPolicy::kFifo;
  SBlockSketch sketch(options, db_.get());
  ASSERT_TRUE(sketch.Insert("FIRST", "F", 1).ok());
  ASSERT_TRUE(sketch.Insert("SECOND", "S", 2).ok());
  // Touching FIRST does not save it under FIFO.
  ASSERT_TRUE(sketch.Insert("FIRST", "F", 3).ok());
  ASSERT_TRUE(sketch.Insert("THIRD", "T", 4).ok());
  // FIRST was admitted earliest -> evicted; touching it now loads from disk.
  const uint64_t loads_before = sketch.stats().disk_loads;
  auto candidates = sketch.Candidates("FIRST", "F");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(sketch.stats().disk_loads, loads_before + 1);
}

TEST_F(SBlockSketchTest, StatsAreConsistent) {
  SBlockSketch sketch(Options(4), db_.get());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sketch.Insert("K" + std::to_string(i % 3), "V", i).ok());
  }
  EXPECT_EQ(sketch.stats().inserts, 10u);
  auto result = sketch.Candidates("K0", "V");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sketch.stats().queries, 1u);
  EXPECT_GT(sketch.stats().live_hits, 0u);
}

// Regression: querying a block key the stream never produced used to admit
// an empty block (evicting a live one when T was full) and seed its anchor
// from the *query's* key values. A miss must be a no-op returning nothing.
TEST_F(SBlockSketchTest, QueryMissReturnsEmptyWithoutAdmission) {
  SBlockSketch sketch(Options(2), db_.get());
  ASSERT_TRUE(sketch.Insert("A", "A#V", 1).ok());
  ASSERT_TRUE(sketch.Insert("B", "B#V", 2).ok());  // T is now full
  auto miss = sketch.Candidates("NEVER_SEEN", "QUERY#V");
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->empty());
  EXPECT_EQ(sketch.stats().query_misses, 1u);
  EXPECT_EQ(sketch.stats().evictions, 0u);      // nothing was pushed out
  EXPECT_EQ(sketch.num_live_blocks(), 2u);      // and nothing was admitted
  // Both real blocks are still live: touching them costs no disk load.
  const uint64_t loads = sketch.stats().disk_loads;
  ASSERT_TRUE(sketch.Candidates("A", "A#V").ok());
  ASSERT_TRUE(sketch.Candidates("B", "B#V").ok());
  EXPECT_EQ(sketch.stats().disk_loads, loads);
  // A later insert under that key starts a real block whose anchor comes
  // from the inserted record, not the earlier query probe.
  ASSERT_TRUE(sketch.Insert("NEVER_SEEN", "REAL#V", 3).ok());
  auto hit = sketch.Candidates("NEVER_SEEN", "REAL#V");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->size(), 1u);
}

TEST_F(SBlockSketchTest, QueryMissForSpilledBlockStillLoads) {
  // A miss means "exists nowhere" — spilled blocks must still fault in.
  SBlockSketch sketch(Options(1), db_.get());
  ASSERT_TRUE(sketch.Insert("AAA", "AAA#V", 1).ok());
  ASSERT_TRUE(sketch.Insert("BBB", "BBB#V", 2).ok());  // spills AAA
  auto candidates = sketch.Candidates("AAA", "AAA#V");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 1u);
  EXPECT_EQ(sketch.stats().query_misses, 0u);
}

// Regression: reloading a spilled block used to leave the spill entry in
// the KV store, so the next reload after more inserts resurrected the
// stale snapshot (and the store grew a dead copy per reload).
TEST_F(SBlockSketchTest, ReloadDeletesStaleSpillEntry) {
  const std::string spill_key = std::string("blk\x01") + "AAA";
  SBlockSketch sketch(Options(1), db_.get());
  ASSERT_TRUE(sketch.Insert("AAA", "AAA#V", 1).ok());
  ASSERT_TRUE(sketch.Insert("FILL", "F#V", 2).ok());  // spills AAA
  EXPECT_TRUE(db_->Contains(spill_key));
  ASSERT_TRUE(sketch.Insert("AAA", "AAA#V", 3).ok());  // reloads AAA
  EXPECT_FALSE(db_->Contains(spill_key));
  // The reloaded (now 2-member) block is the only truth; spill it again
  // and fault it back to prove no stale 1-member snapshot shadowed it.
  ASSERT_TRUE(sketch.Insert("FILL", "F#V", 4).ok());
  auto candidates = sketch.Candidates("AAA", "AAA#V");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 2u);
}

class SBlockSketchFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/sbs_fault_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(kv::RemoveDirRecursively(dir_).ok());
    kv::Options options;
    options.env = &env_;
    auto db = kv::Db::Open(dir_, options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }
  void TearDown() override {
    db_.reset();
    (void)kv::RemoveDirRecursively(dir_);
  }

  SBlockSketchOptions Options(size_t mu) {
    SBlockSketchOptions options;
    options.mu = mu;
    options.sketch.lambda = 3;
    options.sketch.seed = 0x99;
    return options;
  }

  std::string dir_;
  kv::FaultInjectionEnv env_;
  std::unique_ptr<kv::Db> db_;
};

TEST_F(SBlockSketchFaultTest, EvictionFailureSurfacesAndLosesNothing) {
  SBlockSketch sketch(Options(1), db_.get());
  ASSERT_TRUE(sketch.Insert("AAA", "AAA#V", 1).ok());
  // The eviction's spill Put is the next WAL append; fail it.
  env_.FailNth(kv::IoOp::kAppend, 0, Status::IOError("injected spill"));
  EXPECT_TRUE(sketch.Insert("BBB", "BBB#V", 2).IsIOError());
  // AAA was never displaced and is still queryable without a disk load.
  auto candidates = sketch.Candidates("AAA", "AAA#V");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 1u);
  EXPECT_EQ(sketch.stats().disk_loads, 0u);
  // The store healed: the insert goes through on retry.
  ASSERT_TRUE(sketch.Insert("BBB", "BBB#V", 2).ok());
}

TEST_F(SBlockSketchFaultTest, SpillDeleteFailureKeepsReloadedBlockLive) {
  SBlockSketch sketch(Options(1), db_.get());
  ASSERT_TRUE(sketch.Insert("AAA", "AAA#V", 1).ok());
  ASSERT_TRUE(sketch.Insert("FILL", "F#V", 2).ok());  // spills AAA
  // Reloading AAA first spills FILL (append #0 lets that through), then
  // deletes AAA's spill entry (append #1 fails).
  env_.FailNth(kv::IoOp::kAppend, 1, Status::IOError("injected delete"));
  EXPECT_TRUE(sketch.Candidates("AAA", "AAA#V").status().IsIOError());
  // The error must not have lost the block: it is live and intact.
  auto candidates = sketch.Candidates("AAA", "AAA#V");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 1u);
}

/// Spill records the sketch never writes, by name: "lambda" is well formed
/// but has one sub-block where a lambda = 3 sketch routes over three;
/// "oversized" is 10 bytes whose sub-block count, 2^32 - 1, exceeds the
/// record.
std::vector<std::pair<std::string, std::string>> BadSpillRecords() {
  SketchBlock one_sub(1);
  one_sub.anchor = "AAA#V";
  one_sub.subs[0].representatives = {"AAA#V"};
  one_sub.subs[0].members = {1};
  std::string lambda;
  one_sub.EncodeTo(&lambda);
  std::string oversized;
  PutLengthPrefixed(&oversized, "");
  PutVarint32(&oversized, UINT32_MAX);
  oversized.resize(10, '\0');
  return {{"lambda", lambda}, {"oversized", oversized}};
}

std::string SpillKeyOf(const std::string& block_key) {
  return "blk\x01" + block_key;
}

// "ZZZ" shares no character with the anchor "AAA#V": Jaro-Winkler distance
// 1.0, the outermost ring (lambda - 1), which a one-sub record lacks.
constexpr const char* kFarValues = "ZZZ";

TEST_F(SBlockSketchFaultTest, BadSpillRecordFailsInsertWithCorruption) {
  for (const auto& [name, record] : BadSpillRecords()) {
    SBlockSketch sketch(Options(2), db_.get());
    ASSERT_TRUE(db_->Put(SpillKeyOf(name), record).ok());
    const Status status = sketch.Insert(name, kFarValues, 7);
    EXPECT_TRUE(status.IsCorruption()) << name << ": " << status.ToString();
  }
}

TEST_F(SBlockSketchFaultTest, BadSpillRecordFailsCandidatesWithCorruption) {
  for (const auto& [name, record] : BadSpillRecords()) {
    SBlockSketch sketch(Options(1), db_.get());
    ASSERT_TRUE(sketch.Insert(name, "AAA#V", 1).ok());
    ASSERT_TRUE(sketch.Insert(name + "_other", "OTHER#V", 2).ok());  // spills
    ASSERT_TRUE(db_->Put(SpillKeyOf(name), record).ok());
    const auto candidates = sketch.Candidates(name, kFarValues);
    EXPECT_TRUE(candidates.status().IsCorruption())
        << name << ": " << candidates.status().ToString();
  }
}

TEST_F(SBlockSketchFaultTest, BadSpillRecordFailsPoisonedReadWithCorruption) {
  for (const auto& [name, record] : BadSpillRecords()) {
    MaintenanceQueue maintenance;
    SBlockSketch sketch(Options(1), db_.get(), KeyDistanceFn(), &maintenance);
    ASSERT_TRUE(sketch.Insert(name, "AAA#V", 1).ok());
    ASSERT_TRUE(sketch.Insert(name + "_b", "B#V", 2).ok());  // spills `name`
    ASSERT_TRUE(sketch.WaitForMaintenance().ok());
    ASSERT_TRUE(db_->Put(SpillKeyOf(name), record).ok());
    // The next spill dies, which poisons writes: reads of spilled blocks
    // then go through the read-only path.
    env_.FailNth(kv::IoOp::kAppend, 0, Status::IOError("injected spill"));
    ASSERT_TRUE(sketch.Insert(name + "_c", "C#V", 3).ok());
    ASSERT_TRUE(sketch.WaitForMaintenance().IsIOError());
    const auto candidates = sketch.Candidates(name, kFarValues);
    EXPECT_TRUE(candidates.status().IsCorruption())
        << name << ": " << candidates.status().ToString();
  }
}

TEST(SketchBlockCodecTest, DecodeRejectsCountsLargerThanTheRecord) {
  // Each count in turn claims more entries than bytes remain.
  for (int field = 0; field < 3; ++field) {
    std::string encoded;
    PutLengthPrefixed(&encoded, "A");
    PutVarint32(&encoded, field == 0 ? UINT32_MAX : 1);
    PutVarint32(&encoded, field == 1 ? UINT32_MAX : 0);
    PutVarint32(&encoded, field == 2 ? UINT32_MAX : 0);
    encoded.append(4, '\0');
    std::string_view input(encoded);
    const auto decoded = SketchBlock::DecodeFrom(&input);
    EXPECT_TRUE(decoded.status().IsCorruption())
        << "field " << field << ": " << decoded.status().ToString();
  }
}

class MuSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MuSweep, AllMembersRecoverableAtEveryMu) {
  const std::string dir = ::testing::TempDir() + "/sbs_mu_" +
                          std::to_string(GetParam());
  ASSERT_TRUE(kv::RemoveDirRecursively(dir).ok());
  auto db = kv::Db::Open(dir);
  ASSERT_TRUE(db.ok());
  SBlockSketchOptions options;
  options.mu = GetParam();
  options.sketch.seed = 0x31;
  SBlockSketch sketch(options, db->get());

  const int blocks = 40;
  const int per_block = 4;
  for (int b = 0; b < blocks; ++b) {
    for (int m = 0; m < per_block; ++m) {
      ASSERT_TRUE(sketch
                      .Insert("BLK" + std::to_string(b),
                              "BLK" + std::to_string(b) + "#V",
                              b * 100 + m)
                      .ok());
    }
  }
  // Every block's members are reachable regardless of spills.
  for (int b = 0; b < blocks; ++b) {
    auto candidates = sketch.Candidates("BLK" + std::to_string(b),
                                        "BLK" + std::to_string(b) + "#V");
    ASSERT_TRUE(candidates.ok());
    EXPECT_EQ(candidates->size(), static_cast<size_t>(per_block)) << b;
  }
  db->reset();
  (void)kv::RemoveDirRecursively(dir);
}

INSTANTIATE_TEST_SUITE_P(Mus, MuSweep, ::testing::Values(1, 2, 5, 20, 100));

}  // namespace
}  // namespace sketchlink
