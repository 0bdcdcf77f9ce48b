#include "serve/service.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/presets.h"
#include "datagen/generators.h"
#include "gtest/gtest.h"
#include "kv/db.h"
#include "linkage/engine.h"
#include "linkage/sketch_matchers.h"
#include "serve/json.h"
#include "text/normalize.h"

namespace sketchlink::serve {
namespace {

Server::Request MakeRequest(std::string name = "", std::string body = "") {
  Server::Request request;
  if (!name.empty()) request.params.emplace_back("name", std::move(name));
  request.http.body = std::move(body);
  return request;
}

Json RecordToJson(const Record& record, bool with_ids) {
  Json json = Json::Object();
  if (with_ids) {
    json.Set("id", Json::Int(record.id));
    json.Set("entity_id", Json::Int(record.entity_id));
  }
  Json fields = Json::Array();
  for (const std::string& field : record.fields) {
    fields.Append(Json::Str(field));
  }
  json.Set("fields", std::move(fields));
  return json;
}

/// One SBlockSketch engine configured as CreateIndex configures an index
/// with an empty config body, over its own record store and spill db.
class ReferenceEngine {
 public:
  ReferenceEngine(const std::string& dir, ResolveMode mode)
      : blocker_(MakeStandardBlocker(datagen::DatasetKind::kNcvr)),
        similarity_(MatchFieldsFor(datagen::DatasetKind::kNcvr), 0.75) {
    std::filesystem::create_directories(dir);
    db_ = std::move(kv::Db::Open(dir)).value();
    SBlockSketchOptions options;
    options.sketch.lambda = 3;
    options.sketch.delta = 0.1;
    options.sketch.theta = 0.25;
    options.sketch.distance_kind = KeyDistanceKind::kJaroWinkler;
    options.mu = 10'000;
    matcher_ = std::make_unique<SBlockSketchMatcher>(
        options, db_.get(), similarity_, &store_, mode);
    engine_ = std::make_unique<LinkageEngine>(blocker_.get(), matcher_.get(),
                                              similarity_);
  }

  LinkageEngine& engine() { return *engine_; }
  const RecordSimilarity& similarity() const { return similarity_; }

 private:
  std::unique_ptr<StandardBlocker> blocker_;
  RecordSimilarity similarity_;
  std::unique_ptr<kv::Db> db_;
  RecordStore store_;
  std::unique_ptr<SBlockSketchMatcher> matcher_;
  std::unique_ptr<LinkageEngine> engine_;
};

class LinkageServiceTest : public ::testing::Test {
 protected:
  LinkageServiceTest() {
    // One root per test: ctest runs these as parallel processes, and a
    // shared root lets one test's constructor delete another's spill dirs.
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    options_.scratch_dir = (std::filesystem::temp_directory_path() /
                            ("sketchlink_service_test_" + test_name))
                               .string();
    std::filesystem::remove_all(options_.scratch_dir);
    options_.max_indexes = 3;
    options_.max_batch_records = 100;
    service_ = std::make_unique<LinkageService>(options_);
  }

  ~LinkageServiceTest() override {
    service_.reset();
    std::filesystem::remove_all(options_.scratch_dir);
  }

  obs::HttpResponse Create(const std::string& name,
                           const std::string& config = "{}") {
    return service_->CreateIndex(MakeRequest(name, config));
  }

  // Three NCVR-shaped records: two near-duplicates plus one distinct.
  obs::HttpResponse InsertFixture(const std::string& name) {
    return service_->InsertRecords(MakeRequest(
        name,
        R"({"records":[
             {"id":1,"fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]},
             {"id":2,"fields":["ALICE","SMYTH","RALEIGH","27601","F","1980"]},
             {"id":3,"fields":["BOB","JONES","DURHAM","27701","M","1955"]}]})"));
  }

  LinkageService::Options options_;
  std::unique_ptr<LinkageService> service_;
};

TEST_F(LinkageServiceTest, CreateAppliesConfigAndEchoesIt) {
  const obs::HttpResponse response = Create(
      "t1",
      R"({"kind":"ncvr","lambda":500,"delta":0.1,"theta":0.25,"mu":64,
          "distance":"jw","threshold":0.8,"stripes":4})");
  EXPECT_EQ(response.status, 201) << response.body;
  const Json body = Json::Parse(response.body).value();
  EXPECT_EQ(body.GetString("name", ""), "t1");
  EXPECT_EQ(body.GetString("kind", ""), "NCVR");
  EXPECT_EQ(body.GetUint("lambda", 0), 500u);
  EXPECT_EQ(body.GetUint("mu", 0), 64u);
  EXPECT_EQ(body.GetUint("stripes", 0), 4u);
  EXPECT_DOUBLE_EQ(body.GetNumber("threshold", 0), 0.8);
  EXPECT_GT(body.GetUint("rho", 0), 0u);  // derived block width is reported
  EXPECT_EQ(service_->num_indexes(), 1u);
}

TEST_F(LinkageServiceTest, CreateRejectsBadInput) {
  EXPECT_EQ(Create("bad name").status, 400);           // space in name
  EXPECT_EQ(Create(std::string(65, 'a')).status, 400); // too long
  EXPECT_EQ(Create("x", R"({"kind":"martian"})").status, 400);
  EXPECT_EQ(Create("x", R"({"distance":"cosine"})").status, 400);
  EXPECT_EQ(Create("x", R"({"delta":8})").status, 400);
  EXPECT_EQ(Create("x", R"({"threshold":0})").status, 400);
  EXPECT_EQ(Create("x", R"({"stripes":10000})").status, 400);
  EXPECT_EQ(Create("x", R"({"lambda":0})").status, 400);
  EXPECT_EQ(Create("x", "{nope").status, 400);         // malformed JSON
  EXPECT_EQ(Create("x", "[1,2]").status, 400);         // not an object
  // Present but mistyped or out of range: never a silent default.
  EXPECT_EQ(Create("x", R"({"theta":1e999})").status, 400);
  EXPECT_EQ(Create("x", R"({"mu":"64"})").status, 400);
  EXPECT_EQ(Create("x", R"({"lambda":-2})").status, 400);
  EXPECT_EQ(Create("x", R"({"lambda":2.5})").status, 400);
  EXPECT_EQ(Create("x", R"({"stripes":1e300})").status, 400);
  EXPECT_EQ(Create("x", R"({"threshold":"0.8"})").status, 400);
  EXPECT_EQ(Create("x", R"({"kind":7})").status, 400);
  EXPECT_EQ(Create("x", R"({"distance":null})").status, 400);
  EXPECT_EQ(service_->num_indexes(), 0u);              // nothing leaked
}

TEST_F(LinkageServiceTest, CreateEnforcesUniqueNamesAndCap) {
  EXPECT_EQ(Create("a").status, 201);
  EXPECT_EQ(Create("a").status, 409);  // duplicate
  EXPECT_EQ(Create("b").status, 201);
  EXPECT_EQ(Create("c").status, 201);
  EXPECT_EQ(Create("d").status, 409);  // max_indexes = 3
  EXPECT_EQ(service_->num_indexes(), 3u);
}

TEST_F(LinkageServiceTest, InsertQueryDeleteLifecycle) {
  ASSERT_EQ(Create("life", R"({"threshold":0.8,"mu":64})").status, 201);
  const obs::HttpResponse inserted = InsertFixture("life");
  ASSERT_EQ(inserted.status, 200) << inserted.body;
  const Json insert_body = Json::Parse(inserted.body).value();
  EXPECT_EQ(insert_body.GetUint("inserted", 0), 3u);

  // Verified query: the exact duplicate of record 1 must come back with a
  // perfect score, the unrelated record 3 must not.
  const obs::HttpResponse verified = service_->Query(MakeRequest(
      "life",
      R"({"record":{"id":99,
           "fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]},
          "verify":true})"));
  ASSERT_EQ(verified.status, 200) << verified.body;
  const Json verified_body = Json::Parse(verified.body).value();
  EXPECT_TRUE(verified_body.GetBool("verified", false));
  const Json* matches = verified_body.Find("matches");
  ASSERT_NE(matches, nullptr);
  ASSERT_GE(matches->array_items().size(), 1u);
  EXPECT_EQ(matches->array_items()[0].GetUint("id", 0), 1u);
  EXPECT_DOUBLE_EQ(matches->array_items()[0].GetNumber("score", 0), 1.0);
  for (const Json& match : matches->array_items()) {
    EXPECT_NE(match.GetUint("id", 0), 3u);
  }

  // Unverified query returns raw candidates without scores.
  const obs::HttpResponse raw = service_->Query(MakeRequest(
      "life",
      R"({"record":{"id":99,
           "fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]},
          "verify":false})"));
  ASSERT_EQ(raw.status, 200);
  const Json raw_body = Json::Parse(raw.body).value();
  EXPECT_FALSE(raw_body.GetBool("verified", true));
  ASSERT_GE(raw_body.Find("matches")->array_items().size(), 1u);
  EXPECT_TRUE(
      raw_body.Find("matches")->array_items()[0].Find("score") == nullptr);

  // List reports per-index stats.
  const obs::HttpResponse listed = service_->ListIndexes(MakeRequest());
  ASSERT_EQ(listed.status, 200);
  const Json listed_body = Json::Parse(listed.body).value();
  ASSERT_EQ(listed_body.Find("indexes")->array_items().size(), 1u);
  const Json& entry = listed_body.Find("indexes")->array_items()[0];
  EXPECT_EQ(entry.GetString("name", ""), "life");
  EXPECT_EQ(entry.GetUint("records", 0), 3u);
  EXPECT_EQ(entry.GetUint("inserts", 0), 3u);
  EXPECT_GE(entry.GetUint("queries", 0), 2u);
  EXPECT_GT(entry.GetUint("memory_bytes", 0), 0u);

  // Delete drops the index, its routes answer 404, and the spill
  // directory is reclaimed.
  EXPECT_EQ(service_->DeleteIndex(MakeRequest("life")).status, 200);
  EXPECT_EQ(service_->DeleteIndex(MakeRequest("life")).status, 404);
  EXPECT_EQ(service_->Query(MakeRequest("life", R"({"record":{"id":1}})"))
                .status,
            404);
  EXPECT_EQ(service_->num_indexes(), 0u);
  size_t leftover_dirs = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(options_.scratch_dir)) {
    ++leftover_dirs;
  }
  EXPECT_EQ(leftover_dirs, 0u);  // the spill dir went with the index
}

TEST_F(LinkageServiceTest, InsertValidatesBatch) {
  ASSERT_EQ(Create("v").status, 201);
  EXPECT_EQ(service_->InsertRecords(MakeRequest("ghost", R"({"records":[]})"))
                .status,
            404);
  EXPECT_EQ(service_->InsertRecords(MakeRequest("v", "{nope")).status, 400);
  EXPECT_EQ(
      service_->InsertRecords(MakeRequest("v", R"({"records":42})")).status,
      400);
  // Record ids must be numeric.
  EXPECT_EQ(service_->InsertRecords(
                    MakeRequest("v", R"({"records":[{"id":"abc"}]})"))
                .status,
            400);
  // Too few fields for the blocking scheme.
  EXPECT_EQ(service_->InsertRecords(
                    MakeRequest(
                        "v", R"({"records":[{"id":1,"fields":["only"]}]})"))
                .status,
            400);
  // Ids and entity ids are non-negative integers, never truncated.
  for (const char* bad :
       {R"({"records":[{"id":1.5,"fields":["A","B","C","D","E","F"]}]})",
        R"({"records":[{"id":-1,"fields":["A","B","C","D","E","F"]}]})",
        R"({"records":[{"id":1,"entity_id":"7",
                        "fields":["A","B","C","D","E","F"]}]})"}) {
    EXPECT_EQ(service_->InsertRecords(MakeRequest("v", bad)).status, 400)
        << bad;
  }
  EXPECT_EQ(Json::Parse(service_->ListIndexes(MakeRequest()).body)
                .value()
                .Find("indexes")
                ->array_items()[0]
                .GetUint("records", 99),
            0u);  // nothing stored
}

TEST_F(LinkageServiceTest, InsertEnforcesBatchCap) {
  options_.max_batch_records = 2;
  service_ = std::make_unique<LinkageService>(options_);
  ASSERT_EQ(Create("cap").status, 201);
  const obs::HttpResponse over = service_->InsertRecords(MakeRequest(
      "cap",
      R"({"records":[
           {"id":1,"fields":["A","B","C","D","E","F"]},
           {"id":2,"fields":["A","B","C","D","E","F"]},
           {"id":3,"fields":["A","B","C","D","E","F"]}]})"));
  EXPECT_EQ(over.status, 400) << over.body;
}

TEST_F(LinkageServiceTest, QueryHonorsLimit) {
  ASSERT_EQ(Create("lim", R"({"threshold":0.5,"mu":64})").status, 201);
  ASSERT_EQ(InsertFixture("lim").status, 200);
  const obs::HttpResponse limited = service_->Query(MakeRequest(
      "lim",
      R"({"record":{"id":99,
           "fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]},
          "verify":true,"limit":1})"));
  ASSERT_EQ(limited.status, 200);
  EXPECT_EQ(
      Json::Parse(limited.body).value().Find("matches")->array_items().size(),
      1u);
}

TEST_F(LinkageServiceTest, QueryValidatesBody) {
  ASSERT_EQ(Create("q").status, 201);
  EXPECT_EQ(service_->Query(MakeRequest("q", "{nope")).status, 400);
  EXPECT_EQ(service_->Query(MakeRequest("q", "{}")).status, 400);  // no record
  EXPECT_EQ(
      service_->Query(MakeRequest("q", R"({"record":{"id":1}})")).status,
      400);  // no fields
  const std::string record =
      R"("record":{"fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]})";
  EXPECT_EQ(service_->Query(MakeRequest("q", "{" + record + "}")).status, 200);
  for (const char* bad : {R"("verify":"false")", R"("verify":0)",
                          R"("limit":-1)", R"("limit":1.5)",
                          R"("limit":"3")"}) {
    EXPECT_EQ(
        service_->Query(MakeRequest("q", "{" + record + "," + bad + "}"))
            .status,
        400)
        << bad;
  }
}

TEST_F(LinkageServiceTest, QueriesMatchTheEngineOnTheSameInserts) {
  datagen::WorkloadSpec spec;
  spec.kind = datagen::DatasetKind::kNcvr;
  spec.num_entities = 120;
  spec.copies_per_entity = 6;
  spec.max_perturb_ops = 3;
  spec.seed = 7;
  const datagen::Workload workload = datagen::MakeWorkload(spec);
  const std::vector<Record>& data = workload.a.records();
  std::unordered_map<RecordId, const Record*> by_id;
  for (const Record& record : data) by_id[record.id] = &record;

  ASSERT_EQ(Create("diff").status, 201);
  for (size_t begin = 0; begin < data.size();
       begin += options_.max_batch_records) {
    Json list = Json::Array();
    const size_t end =
        std::min(data.size(), begin + options_.max_batch_records);
    for (size_t i = begin; i < end; ++i) {
      list.Append(RecordToJson(data[i], /*with_ids=*/true));
    }
    Json body = Json::Object();
    body.Set("records", std::move(list));
    ASSERT_EQ(service_->InsertRecords(MakeRequest("diff", body.Dump())).status,
              200);
  }
  // The sub-block engine's result set is the deduplicated candidate set;
  // the verified engine's is the candidates at or above the threshold.
  ReferenceEngine sub_block(options_.scratch_dir + "/engine_sub_block",
                            ResolveMode::kSubBlock);
  ReferenceEngine verified(options_.scratch_dir + "/engine_verified",
                           ResolveMode::kVerified);
  ASSERT_TRUE(sub_block.engine().BuildIndex(workload.a).ok());
  ASSERT_TRUE(verified.engine().BuildIndex(workload.a).ok());

  size_t queries_with_matches = 0;
  for (const Record& query : workload.q.records()) {
    const std::vector<RecordId> candidates =
        sub_block.engine().ResolveOne(query).value();
    std::vector<std::pair<double, RecordId>> ranked;
    const std::vector<RecordId> verified_ids =
        verified.engine().ResolveOne(query).value();
    for (const RecordId id : verified_ids) {
      ranked.emplace_back(
          verified.similarity().Similarity(query, *by_id.at(id)), id);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first > b.first || (a.first == b.first && a.second < b.second);
    });
    queries_with_matches += ranked.empty() ? 0 : 1;

    for (const bool verify : {true, false}) {
      for (const uint64_t limit : {0, 1, 3}) {
        Json request = Json::Object();
        request.Set("record", RecordToJson(query, /*with_ids=*/false));
        request.Set("verify", Json::Bool(verify));
        request.Set("limit", Json::Int(limit));
        const obs::HttpResponse response =
            service_->Query(MakeRequest("diff", request.Dump()));
        ASSERT_EQ(response.status, 200) << response.body;

        // The engine's answer, rendered through the Json tree the handler
        // used to build: the bytes written in place must be identical.
        Json matches = Json::Array();
        const size_t shown = verify ? ranked.size() : candidates.size();
        const size_t count = limit != 0 ? std::min<size_t>(limit, shown)
                                        : shown;
        for (size_t i = 0; i < count; ++i) {
          Json match = Json::Object();
          match.Set("id", Json::Int(verify ? ranked[i].second
                                           : candidates[i]));
          if (verify) match.Set("score", Json::Number(ranked[i].first));
          matches.Append(std::move(match));
        }
        Json expected = Json::Object();
        expected.Set("index", Json::Str("diff"));
        expected.Set("num_candidates", Json::Int(candidates.size()));
        expected.Set("verified", Json::Bool(verify));
        expected.Set("matches", std::move(matches));
        ASSERT_EQ(response.body, expected.Dump() + "\n")
            << "verify=" << verify << " limit=" << limit;
      }
    }
  }
  EXPECT_GT(queries_with_matches, workload.q.size() / 2);
}

TEST_F(LinkageServiceTest,
       ServedScoresEqualTheReferenceOnRawAndNormalizedInserts) {
  // One block (given name MARY, surname prefix SMI) holding inserts that
  // normalization changes beside inserts it leaves alone, so the stored
  // views are scored both as they are and after normalizing. With
  // lambda 1 the block is one sub-block: every insert is a candidate.
  const std::vector<std::vector<std::string>> fields = {
      {"MARY", "SMITH", "12 MAIN ST", "RALEIGH"},
      {"mary", "smith", "12 main st", "raleigh"},
      {" MARY", "SMITH ", "12  MAIN\tST", "RALEIGH"},
      {"MARY", "SMITHE", "12 MAIN ST.", "RALEIGH, NC"},
      {"MARY", "SMITS", "", "DURHAM"},
      {"MARY", "SMIDT", "21 ELM ST", "CARY"},
      {"Mary", "Smith", "12 Main St", "Raleigh"},
      {"MARY", "SMITH", "12 MAIN ST", "RALEIGH", "extra, lower"},
  };
  constexpr double kThreshold = 0.5;
  ASSERT_EQ(Create("mixed", R"({"lambda":1,"threshold":0.5})").status, 201);
  std::vector<Record> inserts;
  Json list = Json::Array();
  for (size_t i = 0; i < fields.size(); ++i) {
    Record record;
    record.id = 100 + i;
    record.entity_id = 1;
    record.fields = fields[i];
    list.Append(RecordToJson(record, /*with_ids=*/true));
    inserts.push_back(std::move(record));
  }
  Json body = Json::Object();
  body.Set("records", std::move(list));
  ASSERT_EQ(service_->InsertRecords(MakeRequest("mixed", body.Dump())).status,
            200);

  const RecordSimilarity similarity(
      MatchFieldsFor(datagen::DatasetKind::kNcvr), kThreshold);
  size_t served_by_kind[2] = {0, 0};  // matches from raw / normalized inserts
  for (const Record& query : inserts) {
    Json request = Json::Object();
    request.Set("record", RecordToJson(query, /*with_ids=*/false));
    const obs::HttpResponse response =
        service_->Query(MakeRequest("mixed", request.Dump()));
    ASSERT_EQ(response.status, 200) << response.body;
    const Json served = Json::Parse(response.body).value();
    ASSERT_EQ(served.GetUint("num_candidates", 0), inserts.size());

    // The reference: every insert scored on its raw fields, kept at or
    // above the threshold, best first and equal scores by ascending id.
    std::vector<std::pair<double, RecordId>> expected;
    for (const Record& record : inserts) {
      const double score = similarity.Similarity(query, record);
      if (score >= kThreshold) expected.emplace_back(score, record.id);
    }
    std::sort(expected.begin(), expected.end(),
              [](const auto& a, const auto& b) {
                return a.first > b.first ||
                       (a.first == b.first && a.second < b.second);
              });
    std::vector<std::pair<double, RecordId>> got;
    for (const Json& match : served.Find("matches")->array_items()) {
      got.emplace_back(match.GetNumber("score", -1), match.GetUint("id", 0));
    }
    ASSERT_EQ(got, expected) << response.body;
    for (const auto& [score, id] : got) {
      const Record& record = inserts[id - 100];
      const bool normalized =
          std::all_of(record.fields.begin(), record.fields.end(),
                      [](const std::string& field) {
                        return text::NormalizeField(field) == field;
                      });
      ++served_by_kind[normalized ? 1 : 0];
    }
  }
  // Matches came from raw and from normalized inserts.
  EXPECT_GT(served_by_kind[0], 0u);
  EXPECT_GT(served_by_kind[1], 0u);
}

TEST_F(LinkageServiceTest, IndexesAreIsolated) {
  ASSERT_EQ(Create("left", R"({"threshold":0.8,"mu":64})").status, 201);
  ASSERT_EQ(Create("right", R"({"threshold":0.8,"mu":64})").status, 201);
  ASSERT_EQ(InsertFixture("left").status, 200);

  // The sibling index sees none of left's records.
  const obs::HttpResponse response = service_->Query(MakeRequest(
      "right",
      R"({"record":{"id":99,
           "fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]},
          "verify":false})"));
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(
      Json::Parse(response.body).value().GetUint("num_candidates", 99), 0u);
}

}  // namespace
}  // namespace sketchlink::serve
