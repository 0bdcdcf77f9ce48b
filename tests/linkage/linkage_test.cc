#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "blocking/presets.h"
#include "datagen/generators.h"
#include "datagen/perturb.h"
#include "kv/env.h"
#include "linkage/metrics.h"
#include "linkage/record_store.h"
#include "linkage/similarity.h"
#include "text/jaro.h"
#include "text/normalize.h"

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

TEST(RecordSimilarityTest, IdenticalRecordsScoreOne) {
  RecordSimilarity similarity({0, 1});
  const Record a = MakeRecord(1, 1, {"JAMES", "JOHNSON"});
  EXPECT_DOUBLE_EQ(similarity.Similarity(a, a), 1.0);
  EXPECT_TRUE(similarity.Matches(a, a));
}

TEST(SimilarityScorerTest, RecordAndViewScoresEqualTheReferenceBitForBit) {
  // Unsorted field indexes, one past the record's fields and one past the
  // scorer's slice buffer; values the Jaro pattern cannot hold (> 64 bytes,
  // > 32 distinct bytes) fall back exactly.
  const std::string long_value(70, 'A');
  std::string wide_value;
  for (char c = '!'; c < '!' + 40; ++c) wide_value.push_back(c);
  std::vector<std::string> base(41);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = "FIELD" + std::to_string(i);
  }
  base[0] = "JOHNSON";
  base[2] = "12.5";
  base[3] = "MARY ANN SMITH";
  base[5] = long_value;
  base[7] = wide_value;
  base[40] = "FARAWAY";
  const RecordSimilarity similarity({3, 0, 2, 5, 7, 1, 4, 40, 50}, 0.75);
  const Record query = MakeRecord(1, 1, base);
  std::vector<Record> candidates;
  for (int variant = 0; variant < 4; ++variant) {
    std::vector<std::string> fields = base;
    fields[0] = variant % 2 == 0 ? "JONSON" : "johnson ";
    fields[2] = variant < 2 ? "12" : "x";
    fields[3] = "SMITH MARY";
    fields[5] = long_value.substr(0, 60 + variant) + "B";
    fields[7] = wide_value.substr(variant);
    fields[40] = variant == 3 ? "FARAWAY" : "NEARBY";
    candidates.push_back(MakeRecord(2 + variant, 2, fields));
  }
  candidates.push_back(MakeRecord(9, 9, {"JOHNSON"}));  // few fields
  candidates.push_back(MakeRecord(10, 10, {}));

  const SimilarityScorer scorer(similarity, query);
  std::string scratch;
  for (const Record& candidate : candidates) {
    const double expected = similarity.Similarity(query, candidate);
    EXPECT_EQ(scorer.Similarity(candidate), expected) << candidate.id;
    std::string encoded;
    candidate.EncodeTo(&encoded);
    auto view = RecordView::FromEncoded(encoded);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(scorer.Similarity(*view, &scratch), expected) << candidate.id;
  }
}

// The definition, written out on the scalar reference: the Jaro-Winkler
// similarity of each normalized match field, summed in field order and
// divided by the field count.
double MeanScalarJaroWinkler(const std::vector<int>& match_fields,
                             const Record& a, const Record& b) {
  double total = 0.0;
  for (int field : match_fields) {
    const size_t index = static_cast<size_t>(field);
    const std::string va =
        index < a.fields.size() ? text::NormalizeField(a.fields[index]) : "";
    const std::string vb =
        index < b.fields.size() ? text::NormalizeField(b.fields[index]) : "";
    total += text::JaroWinkler(va, vb);
  }
  return total / static_cast<double>(match_fields.size());
}

TEST(RecordSimilarityTest, EqualsMeanOfScalarJaroWinklerBitForBit) {
  // Each NCVR base record against two perturbed copies of itself and two
  // unrelated records: 12k pairs spanning matches and non-matches.
  constexpr size_t kBase = 3000;
  const Dataset base =
      datagen::GenerateBase(datagen::DatasetKind::kNcvr, kBase, 7, 0.8);
  const std::vector<int> match_fields =
      MatchFieldsFor(datagen::DatasetKind::kNcvr);
  const RecordSimilarity similarity(match_fields, 0.75);
  datagen::Perturbator perturbator(11);
  SimilarityScorer scorer;
  std::string encoded;
  std::string scratch;
  size_t matches = 0;
  for (size_t i = 0; i < kBase; ++i) {
    const Record& query = base.records()[i];
    const Record candidates[] = {
        perturbator.PerturbRecord(query, kBase + 2 * i),
        perturbator.PerturbRecord(query, kBase + 2 * i + 1),
        base.records()[(i + 1) % kBase],
        base.records()[(i * 7 + kBase / 2) % kBase]};
    scorer.Bind(similarity, query);
    for (const Record& candidate : candidates) {
      const double expected =
          MeanScalarJaroWinkler(match_fields, query, candidate);
      ASSERT_EQ(similarity.Similarity(query, candidate), expected)
          << query.id << " vs " << candidate.id;
      ASSERT_EQ(scorer.Similarity(candidate), expected) << candidate.id;
      encoded.clear();
      candidate.EncodeTo(&encoded);
      auto view = RecordView::FromEncoded(encoded);
      ASSERT_TRUE(view.ok());
      ASSERT_EQ(scorer.Similarity(*view, &scratch), expected) << candidate.id;
      if (expected >= similarity.threshold()) ++matches;
    }
  }
  // Both sides of theta' are exercised.
  EXPECT_GT(matches, kBase);
  EXPECT_LT(matches, 4 * kBase);
}

TEST(RecordViewTest, SliceFieldsMatchesFieldAccess) {
  const Record record = MakeRecord(7, 7, {"A", "", "CCC", "DD"});
  std::string encoded;
  record.EncodeTo(&encoded);
  auto view = RecordView::FromEncoded(encoded);
  ASSERT_TRUE(view.ok());
  std::string_view slices[8];
  EXPECT_EQ(view->SliceFields(slices, 0), 0u);
  EXPECT_EQ(view->SliceFields(slices, 2), 2u);
  EXPECT_EQ(slices[0], "A");
  EXPECT_EQ(slices[1], "");
  ASSERT_EQ(view->SliceFields(slices, 8), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(slices[i], view->field(i)) << i;
  EXPECT_EQ(view->field(4), "");
}

TEST(RecordSimilarityTest, AveragesAcrossFields) {
  RecordSimilarity similarity({0, 1}, 0.75);
  const Record a = MakeRecord(1, 1, {"JAMES", "JOHNSON"});
  const Record b = MakeRecord(2, 2, {"JAMES", "XXXXXXX"});
  const double sim = similarity.Similarity(a, b);
  EXPECT_GT(sim, 0.4);
  EXPECT_LT(sim, 0.75);
  EXPECT_FALSE(similarity.Matches(a, b));
}

TEST(RecordSimilarityTest, NormalizesBeforeComparing) {
  RecordSimilarity similarity({0});
  const Record a = MakeRecord(1, 1, {"  james  "});
  const Record b = MakeRecord(2, 2, {"JAMES"});
  EXPECT_DOUBLE_EQ(similarity.Similarity(a, b), 1.0);
}

TEST(RecordSimilarityTest, MissingFieldsTreatedAsEmpty) {
  RecordSimilarity similarity({0, 3});
  const Record a = MakeRecord(1, 1, {"JAMES"});
  const Record b = MakeRecord(2, 2, {"JAMES"});
  // Field 3 absent on both: Jaro("", "") = 1.
  EXPECT_DOUBLE_EQ(similarity.Similarity(a, b), 1.0);
}

TEST(RecordSimilarityTest, KeyValuesJoinsNormalizedFields) {
  RecordSimilarity similarity({0, 1});
  const Record a = MakeRecord(1, 1, {" james ", "o'brien"});
  EXPECT_EQ(similarity.KeyValues(a), "JAMES#O'BRIEN");
}

TEST(RecordSimilarityTest, PerturbedRecordStaysAboveThreshold) {
  RecordSimilarity similarity({0, 1, 2, 3}, 0.75);
  const Record a =
      MakeRecord(1, 1, {"JAMES", "JOHNSON", "100 MAIN ST", "RALEIGH"});
  const Record b =
      MakeRecord(2, 1, {"JAMS", "JOHNSONN", "100 MIAN ST", "RALEIGH"});
  EXPECT_TRUE(similarity.Matches(a, b));
}

TEST(RecordStoreTest, InMemoryPutGet) {
  RecordStore store;
  ASSERT_TRUE(store.Put(MakeRecord(7, 1, {"X"})).ok());
  auto record = store.Get(7);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->fields[0], "X");
  EXPECT_TRUE(store.Get(8).status().IsNotFound());
  EXPECT_EQ(store.size(), 1u);
}

TEST(RecordStoreTest, OverwriteKeepsLatest) {
  RecordStore store;
  ASSERT_TRUE(store.Put(MakeRecord(1, 1, {"OLD"})).ok());
  ASSERT_TRUE(store.Put(MakeRecord(1, 1, {"NEW"})).ok());
  auto record = store.Get(1);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->fields[0], "NEW");
  EXPECT_EQ(store.size(), 1u);
}

TEST(RecordStoreTest, ViewsSurviveInsertsPastAnyCapacity) {
  // Regression for the string_view-into-reallocating-storage hazard: a
  // reader holds zero-copy views while inserts force the backing arena
  // through many block growths. Every held view must keep its address and
  // bytes (the DESIGN.md §12 stability contract GetView is built on).
  RecordStore store;
  constexpr RecordId kHeld = 1;
  ASSERT_TRUE(
      store.Put(MakeRecord(kHeld, 1, {"JAMES", "JOHNSON", "RALEIGH"})).ok());
  auto held = store.GetView(kHeld);
  ASSERT_TRUE(held.ok());
  const char* held_data = held->field(0).data();

  for (RecordId id = 2; id <= 4000; ++id) {
    ASSERT_TRUE(store
                    .Put(MakeRecord(id, id,
                                    {"FILLER-" + std::to_string(id),
                                     std::string(64, 'x')}))
                    .ok());
  }

  EXPECT_EQ(held->field(0), "JAMES");
  EXPECT_EQ(held->field(1), "JOHNSON");
  EXPECT_EQ(held->field(2), "RALEIGH");
  // Not just equal content — the very same bytes (nothing was reallocated).
  EXPECT_EQ(held->field(0).data(), held_data);
  // A fresh view still resolves the same payload.
  auto fresh = store.GetView(kHeld);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->field(0).data(), held_data);
}

TEST(RecordStoreTest, OldViewsStayReadableAfterOverwrite) {
  // Overwriting an id must not invalidate views opened on the old payload:
  // they keep showing the bytes they were opened on (stale-but-safe), while
  // new views see the replacement.
  RecordStore store;
  ASSERT_TRUE(store.Put(MakeRecord(5, 1, {"OLD"})).ok());
  auto old_view = store.GetView(5);
  ASSERT_TRUE(old_view.ok());
  ASSERT_TRUE(store.Put(MakeRecord(5, 1, {"NEW"})).ok());
  EXPECT_EQ(old_view->field(0), "OLD");
  auto new_view = store.GetView(5);
  ASSERT_TRUE(new_view.ok());
  EXPECT_EQ(new_view->field(0), "NEW");
}

TEST(RecordStoreTest, ConcurrentReadersHoldViewsUnderLiveInserts) {
  // The serving-plane shape: query threads verify candidates through views
  // while inserts land. TSan-checked in the tier-1 sanitizer presets.
  RecordStore store;
  constexpr RecordId kSeeded = 100;
  for (RecordId id = 1; id <= kSeeded; ++id) {
    ASSERT_TRUE(
        store.Put(MakeRecord(id, id, {"SEED-" + std::to_string(id)})).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (RecordId id = kSeeded + 1; id <= kSeeded + 2000; ++id) {
      if (!store.Put(MakeRecord(id, id, {std::string(40, 'w')})).ok()) break;
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t probes = 0;
      while (!stop.load(std::memory_order_acquire) || probes < 1000) {
        const RecordId id = 1 + (probes % kSeeded);
        auto view = store.GetView(id);
        ASSERT_TRUE(view.ok());
        ASSERT_EQ(view->field(0), "SEED-" + std::to_string(id));
        if (++probes >= 500000) break;  // paranoia bound
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(store.size(), kSeeded + 2000u);
}

TEST(RecordStoreTest, KvBackedWritesThrough) {
  const std::string dir = ::testing::TempDir() + "/record_store_kv";
  ASSERT_TRUE(kv::RemoveDirRecursively(dir).ok());
  auto db = kv::Db::Open(dir);
  ASSERT_TRUE(db.ok());
  {
    RecordStore store(db->get());
    ASSERT_TRUE(store.Put(MakeRecord(3, 1, {"DURABLE"})).ok());
  }
  // A fresh store over the same DB sees the record (cache empty -> KV read).
  RecordStore fresh(db->get());
  auto record = fresh.Get(3);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->fields[0], "DURABLE");
  db->reset();
  (void)kv::RemoveDirRecursively(dir);
}

// Records whose fields normalization changes (lower case, runs of spaces
// and tabs, leading or trailing blanks, punctuation, a non-match field
// alone) and records it leaves alone. Both kinds carry empty and missing
// match fields, and each record comes again widened to 41 fields, so match
// field 40 is read past the scorer's 32-slice buffer.
std::vector<Record> MixedNormalizationRecords() {
  const std::vector<std::vector<std::string>> changed = {
      {"johnson", "MARY", "12 MAIN ST"},
      {"JOHNSON", "MARY \t ANN", "12  MAIN ST"},
      {"  JOHNSON", "MARY ", "12 MAIN ST\t"},
      {"O'BRIEN, JR.", "MARY-ANN", "12 MAIN ST."},
      {"JOHNSON", "MARY", "12 MAIN ST", "raleigh"},
      {"", "mary"},
  };
  const std::vector<std::vector<std::string>> unchanged = {
      {"JOHNSON", "MARY", "12 MAIN ST"},
      {"JONSON", "MARY ANN", "12 MAIN STREET"},
      {"O'BRIEN JR", "MARY-ANN", "21 MAIN ST", "RALEIGH"},
      {"", "MARY"},
      {},
  };
  std::vector<Record> records;
  RecordId id = 1;
  for (const auto* kind : {&changed, &unchanged}) {
    for (const std::vector<std::string>& fields : *kind) {
      records.push_back(MakeRecord(id++, 1, fields));
      std::vector<std::string> wide = fields;
      wide.resize(41, "FILLER");
      wide[40] = kind == &changed ? "far away" : "FAR AWAY";
      records.push_back(MakeRecord(id++, 1, wide));
    }
  }
  return records;
}

// Fetches `records` from `store` in one GetViews call, checks each view's
// normalized flag, and scores every record against every view: the scorer
// must equal RecordSimilarity on the raw records bit for bit.
void ExpectStoredViewsScoreLikeRawRecords(const RecordStore& store,
                                          const std::vector<Record>& records) {
  const RecordSimilarity similarity({1, 0, 2, 40}, 0.75);
  std::vector<RecordId> ids;
  for (const Record& record : records) ids.push_back(record.id);
  std::vector<RecordView> views;
  ASSERT_TRUE(store.GetViews(ids, &views).ok());
  size_t flagged = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    bool normalized = true;
    for (const std::string& field : records[i].fields) {
      normalized = normalized && text::NormalizeField(field) == field;
    }
    ASSERT_EQ(views[i].fields_normalized(), normalized) << records[i].id;
    flagged += normalized ? 1 : 0;
  }
  // Both scoring paths run.
  ASSERT_GT(flagged, 0u);
  ASSERT_LT(flagged, records.size());
  SimilarityScorer scorer;
  std::string scratch;
  for (const Record& query : records) {
    scorer.Bind(similarity, query);
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(scorer.Similarity(views[i], &scratch),
                similarity.Similarity(query, records[i]))
          << query.id << " vs " << records[i].id;
    }
  }
}

TEST(RecordStoreTest, ViewsScoreLikeRawRecordsWithTheFlagSetOrClear) {
  const std::vector<Record> records = MixedNormalizationRecords();
  {
    RecordStore store;
    for (const Record& record : records) ASSERT_TRUE(store.Put(record).ok());
    ExpectStoredViewsScoreLikeRawRecords(store, records);
  }
  const std::string dir = ::testing::TempDir() + "/record_store_flag_kv";
  ASSERT_TRUE(kv::RemoveDirRecursively(dir).ok());
  auto db = kv::Db::Open(dir);
  ASSERT_TRUE(db.ok());
  {
    RecordStore store(db->get());
    for (const Record& record : records) ASSERT_TRUE(store.Put(record).ok());
    ExpectStoredViewsScoreLikeRawRecords(store, records);
  }
  // A fresh store over the same Db starts empty, so GetViews faults every
  // record in from kv and computes the flag there. The kv payload itself
  // is the plain Record::EncodeTo bytes (Get decodes it without caching).
  RecordStore fresh(db->get());
  for (const Record& record : records) {
    auto stored = fresh.Get(record.id);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_EQ(*stored, record);
  }
  ASSERT_EQ(fresh.size(), 0u);
  ExpectStoredViewsScoreLikeRawRecords(fresh, records);
  EXPECT_EQ(fresh.size(), records.size());
  db->reset();
  (void)kv::RemoveDirRecursively(dir);
}

TEST(GroundTruthTest, EntityLookupAndCounts) {
  Dataset dataset;
  dataset.Add(MakeRecord(1, 100, {}));
  dataset.Add(MakeRecord(2, 100, {}));
  dataset.Add(MakeRecord(3, 200, {}));
  GroundTruth truth(dataset);
  EXPECT_EQ(truth.EntityOf(1), 100u);
  EXPECT_EQ(truth.EntityOf(99), 0u);
  EXPECT_EQ(truth.EntityCount(100), 2u);
  EXPECT_EQ(truth.EntityCount(999), 0u);
  EXPECT_EQ(truth.num_records(), 3u);
}

TEST(QualityScorerTest, PerfectResult) {
  Dataset dataset;
  dataset.Add(MakeRecord(1, 100, {}));
  dataset.Add(MakeRecord(2, 100, {}));
  GroundTruth truth(dataset);
  QualityScorer scorer(&truth);
  scorer.AddQueryResult(MakeRecord(50, 100, {}), {1, 2});
  const QualityMetrics metrics = scorer.Finalize();
  EXPECT_EQ(metrics.true_pairs, 2u);
  EXPECT_EQ(metrics.reported_pairs, 2u);
  EXPECT_EQ(metrics.correct_pairs, 2u);
  EXPECT_DOUBLE_EQ(metrics.recall, 1.0);
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);
  EXPECT_DOUBLE_EQ(metrics.f1, 1.0);
}

TEST(QualityScorerTest, FalsePositivesHurtPrecisionOnly) {
  Dataset dataset;
  dataset.Add(MakeRecord(1, 100, {}));
  dataset.Add(MakeRecord(2, 200, {}));
  GroundTruth truth(dataset);
  QualityScorer scorer(&truth);
  scorer.AddQueryResult(MakeRecord(50, 100, {}), {1, 2});  // 2 is wrong
  const QualityMetrics metrics = scorer.Finalize();
  EXPECT_DOUBLE_EQ(metrics.recall, 1.0);
  EXPECT_DOUBLE_EQ(metrics.precision, 0.5);
}

TEST(QualityScorerTest, MissesHurtRecallOnly) {
  Dataset dataset;
  dataset.Add(MakeRecord(1, 100, {}));
  dataset.Add(MakeRecord(2, 100, {}));
  GroundTruth truth(dataset);
  QualityScorer scorer(&truth);
  scorer.AddQueryResult(MakeRecord(50, 100, {}), {1});
  const QualityMetrics metrics = scorer.Finalize();
  EXPECT_DOUBLE_EQ(metrics.recall, 0.5);
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);
}

TEST(QualityScorerTest, EmptyResultsGiveZeroRates) {
  Dataset dataset;
  dataset.Add(MakeRecord(1, 100, {}));
  GroundTruth truth(dataset);
  QualityScorer scorer(&truth);
  scorer.AddQueryResult(MakeRecord(50, 100, {}), {});
  const QualityMetrics metrics = scorer.Finalize();
  EXPECT_DOUBLE_EQ(metrics.recall, 0.0);
  EXPECT_DOUBLE_EQ(metrics.precision, 0.0);
  EXPECT_DOUBLE_EQ(metrics.f1, 0.0);
}

TEST(QualityScorerTest, AccumulatesAcrossQueries) {
  Dataset dataset;
  dataset.Add(MakeRecord(1, 100, {}));
  dataset.Add(MakeRecord(2, 200, {}));
  GroundTruth truth(dataset);
  QualityScorer scorer(&truth);
  scorer.AddQueryResult(MakeRecord(50, 100, {}), {1});
  scorer.AddQueryResult(MakeRecord(51, 200, {}), {2});
  const QualityMetrics metrics = scorer.Finalize();
  EXPECT_EQ(metrics.true_pairs, 2u);
  EXPECT_EQ(metrics.correct_pairs, 2u);
  EXPECT_DOUBLE_EQ(metrics.f1, 1.0);
}

}  // namespace
}  // namespace sketchlink
