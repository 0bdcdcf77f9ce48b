#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "linkage/sketch_matchers.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/spans.h"

namespace sketchlink::serve {

namespace {

obs::HttpResponse JsonResponse(int status, const Json& body) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = body.Dump();
  response.body += '\n';
  return response;
}

obs::HttpResponse ErrorResponse(int status, std::string message) {
  Json body = Json::Object();
  body.Set("error", Json::Str(std::move(message)));
  return JsonResponse(status, body);
}

bool ValidIndexName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool ParseKind(std::string_view text, datagen::DatasetKind* kind) {
  std::string lower(text);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "ncvr") *kind = datagen::DatasetKind::kNcvr;
  else if (lower == "dblp") *kind = datagen::DatasetKind::kDblp;
  else if (lower == "lab") *kind = datagen::DatasetKind::kLab;
  else return false;
  return true;
}

bool ParseDistance(std::string_view text, KeyDistanceKind* kind) {
  if (text == "jw" || text == "jaro_winkler") {
    *kind = KeyDistanceKind::kJaroWinkler;
  } else if (text == "qgram" || text == "qgram_dice") {
    *kind = KeyDistanceKind::kQGramDice;
  } else if (text == "lev" || text == "levenshtein") {
    *kind = KeyDistanceKind::kLevenshtein;
  } else {
    return false;
  }
  return true;
}

/// Reads optional typed members of a request object. An absent member
/// keeps the caller's default; the first member present with the wrong type
/// or range is kept as an InvalidArgument status (the caller answers 400)
/// and every later read is skipped.
class FieldReader {
 public:
  explicit FieldReader(const Json& object) : object_(object) {}

  void Read(std::string_view key, std::string* out) {
    const Json* value = Present(key);
    if (value == nullptr) return;
    if (!value->is_string()) return Fail(key, "a string");
    *out = value->string_value();
  }

  /// Any number (Parse already rejects the ones that overflow to inf).
  void Read(std::string_view key, double* out) {
    const Json* value = Present(key);
    if (value == nullptr) return;
    if (!value->is_number()) return Fail(key, "a number");
    *out = value->number_value();
  }

  /// An integer in [0, 2^53], the range a double holds exactly.
  void Read(std::string_view key, uint64_t* out) {
    const Json* value = Present(key);
    if (value == nullptr) return;
    const double d = value->is_number() ? value->number_value() : -1;
    if (d < 0 || d != std::floor(d) || d > 9007199254740992.0) {
      return Fail(key, "a non-negative integer");
    }
    *out = static_cast<uint64_t>(d);
  }

  void Read(std::string_view key, bool* out) {
    const Json* value = Present(key);
    if (value == nullptr) return;
    if (!value->is_bool()) return Fail(key, "true or false");
    *out = value->bool_value();
  }

  const Status& status() const { return status_; }

 private:
  const Json* Present(std::string_view key) const {
    return status_.ok() ? object_.Find(key) : nullptr;
  }
  void Fail(std::string_view key, const char* expected) {
    status_ = Status::InvalidArgument(std::string(key) + " must be " +
                                      expected);
  }

  const Json& object_;
  Status status_;
};

/// Parses one {"id":..,"entity_id":..,"fields":[..]} object.
/// `require_id` is true for inserts (queries don't need one).
Status RecordFromJson(const Json& json, bool require_id, Record* record) {
  if (!json.is_object()) return Status::InvalidArgument("record not an object");
  if (require_id && json.Find("id") == nullptr) {
    return Status::InvalidArgument("record missing id");
  }
  FieldReader reader(json);
  uint64_t id = record->id;
  uint64_t entity_id = 0;
  reader.Read("id", &id);
  reader.Read("entity_id", &entity_id);
  SKETCHLINK_RETURN_IF_ERROR(reader.status());
  record->id = id;
  record->entity_id = entity_id;
  const Json* fields = json.Find("fields");
  if (fields == nullptr || !fields->is_array() ||
      fields->array_items().empty()) {
    return Status::InvalidArgument("record missing fields array");
  }
  record->fields.clear();
  record->fields.reserve(fields->array_items().size());
  for (const Json& field : fields->array_items()) {
    if (!field.is_string()) {
      return Status::InvalidArgument("record fields must be strings");
    }
    record->fields.push_back(field.string_value());
  }
  return Status::OK();
}

/// Largest field index an index's blocking + matching config reads.
int RequiredFields(const StandardBlocker& blocker,
                   const RecordSimilarity& similarity) {
  int max_index = 0;
  for (const auto& part : blocker.parts()) {
    max_index = std::max(max_index, part.field_index);
  }
  for (const int field : similarity.match_fields()) {
    max_index = std::max(max_index, field);
  }
  return max_index + 1;
}

}  // namespace

LinkageService::Index::~Index() {
  // Sketch first (flushes pending spills into spill_db), then the db, then
  // the on-disk spill data — a deleted index leaves nothing behind.
  metric_regs.clear();
  sketch.reset();
  spill_db.reset();
  if (!spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
  }
}

LinkageService::LinkageService(const Options& options) : options_(options) {
  if (options_.registry != nullptr) {
    // Cardinality bound: one child per live index per op/reason, so the
    // caps below can only be hit by racing create/delete churn — and then
    // the overflow child keeps totals honest.
    requests_family_ = std::make_unique<obs::CounterFamily>(
        options_.registry, "serve_index_requests_total",
        "Requests executed, by index and operation",
        std::vector<std::string>{"index", "op"}, options_.max_indexes * 2 + 4);
    sheds_family_ = std::make_unique<obs::CounterFamily>(
        options_.registry, "serve_index_shed_total",
        "Requests shed before execution, by index and reason",
        std::vector<std::string>{"index", "reason"},
        options_.max_indexes * 2 + 4);
    latency_family_ = std::make_unique<obs::HistogramFamily>(
        options_.registry, "serve_index_request_latency_nanos",
        "Handler latency of executed requests, by index",
        std::vector<std::string>{"index"}, options_.max_indexes + 2);
  }
}

LinkageService::~LinkageService() = default;

std::shared_ptr<LinkageService::Index> LinkageService::FindIndex(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = indexes_.find(name);
  return it != indexes_.end() ? it->second : nullptr;
}

size_t LinkageService::num_indexes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexes_.size();
}

void LinkageService::RegisterRoutes(Server* server) {
  server->AddRoute("GET", "/v1/indexes",
                   [this](const Server::Request& r) { return ListIndexes(r); });
  server->AddRoute("POST", "/v1/indexes/{name}",
                   [this](const Server::Request& r) { return CreateIndex(r); });
  server->AddRoute("DELETE", "/v1/indexes/{name}",
                   [this](const Server::Request& r) { return DeleteIndex(r); });
  server->AddRoute("POST", "/v1/indexes/{name}/records",
                   [this](const Server::Request& r) { return InsertRecords(r); });
  server->AddRoute("POST", "/v1/indexes/{name}/query",
                   [this](const Server::Request& r) { return Query(r); });
}

obs::HttpResponse LinkageService::CreateIndex(const Server::Request& request) {
  const std::string name(request.Param("name"));
  if (!ValidIndexName(name)) {
    return ErrorResponse(400,
                         "index name must match [A-Za-z0-9_-]{1,64}");
  }

  Json config = Json::Object();
  if (!request.http.body.empty()) {
    Result<Json> parsed = Json::Parse(request.http.body);
    if (!parsed.ok()) {
      return ErrorResponse(400, parsed.status().message());
    }
    if (!parsed.value().is_object()) {
      return ErrorResponse(400, "config body must be a JSON object");
    }
    config = std::move(parsed).value();
  }

  std::string kind_text = "ncvr";
  std::string distance = "jw";
  uint64_t lambda = 3;
  uint64_t mu = 10'000;
  uint64_t stripes = ShardedSBlockSketch::kDefaultStripes;
  double delta = 0.1;
  double theta = 0.25;
  double threshold = 0.75;
  FieldReader reader(config);
  reader.Read("kind", &kind_text);
  reader.Read("lambda", &lambda);
  reader.Read("delta", &delta);
  reader.Read("theta", &theta);
  reader.Read("mu", &mu);
  reader.Read("distance", &distance);
  reader.Read("stripes", &stripes);
  reader.Read("threshold", &threshold);
  if (!reader.status().ok()) {
    return ErrorResponse(400, reader.status().message());
  }
  datagen::DatasetKind kind = datagen::DatasetKind::kNcvr;
  if (!ParseKind(kind_text, &kind)) {
    return ErrorResponse(400, "unknown kind (expected ncvr|dblp|lab)");
  }

  SBlockSketchOptions sketch_options;
  sketch_options.sketch.lambda = static_cast<size_t>(lambda);
  sketch_options.sketch.delta = delta;
  sketch_options.sketch.theta = theta;
  sketch_options.mu = static_cast<size_t>(mu);
  if (!ParseDistance(distance, &sketch_options.sketch.distance_kind)) {
    return ErrorResponse(400, "unknown distance (expected jw|qgram|lev)");
  }
  if (sketch_options.sketch.lambda == 0 || sketch_options.mu == 0 ||
      stripes == 0 || stripes > 256 ||
      sketch_options.sketch.delta <= 0 || sketch_options.sketch.delta >= 1 ||
      sketch_options.sketch.theta <= 0 || threshold <= 0 || threshold > 1) {
    return ErrorResponse(400, "config values out of range");
  }

  auto index = std::make_shared<Index>();
  index->name = name;
  index->kind = kind;
  index->threshold = threshold;
  // Per-incarnation spill dir: DELETE only drops the map entry, and the
  // directory is removed when the last in-flight holder destroys the
  // Index — which can overlap a re-create of the same name. A unique
  // suffix keeps the new incarnation's spill data out of the old one's
  // teardown path.
  index->spill_dir = options_.scratch_dir + "/" + name + "." +
                     std::to_string(next_incarnation_.fetch_add(1) + 1);

  {
    // Reserve the name before the (slow) db open so two concurrent creates
    // of the same name cannot both build an index.
    std::lock_guard<std::mutex> lock(mu_);
    if (indexes_.count(name) != 0) {
      return ErrorResponse(409, "index already exists");
    }
    if (indexes_.size() >= options_.max_indexes) {
      return ErrorResponse(409, "too many indexes");
    }
    indexes_.emplace(name, nullptr);  // placeholder
  }

  const auto unreserve = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    indexes_.erase(name);
  };

  std::error_code ec;
  std::filesystem::create_directories(index->spill_dir, ec);
  if (ec) {
    unreserve();
    return ErrorResponse(500, "cannot create spill dir: " + ec.message());
  }
  Result<std::unique_ptr<kv::Db>> db = kv::Db::Open(index->spill_dir);
  if (!db.ok()) {
    unreserve();
    return ErrorResponse(500,
                         "spill db open: " + db.status().message());
  }
  index->spill_db = std::move(db).value();
  index->blocker = MakeStandardBlocker(kind);
  index->similarity =
      std::make_unique<RecordSimilarity>(MatchFieldsFor(kind), threshold);
  index->sketch = std::make_unique<ShardedSBlockSketch>(
      sketch_options, index->spill_db.get(), KeyDistanceFn(), stripes);
  if (options_.registry != nullptr) {
    index->metric_regs =
        index->sketch->RegisterMetrics(options_.registry, "api_" + name);
    index->requests_insert = requests_family_->Add({name, "insert"});
    index->requests_query = requests_family_->Add({name, "query"});
    index->shed_queue_full = sheds_family_->Add({name, "queue_full"});
    index->shed_deadline = sheds_family_->Add({name, "deadline"});
    index->latency = latency_family_->Add({name});
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    indexes_[name] = index;
  }

  Json body = Json::Object();
  body.Set("name", Json::Str(name));
  body.Set("kind", Json::Str(std::string(datagen::DatasetKindName(kind))));
  body.Set("lambda", Json::Int(sketch_options.sketch.lambda));
  body.Set("rho", Json::Int(sketch_options.sketch.rho()));
  body.Set("theta", Json::Number(sketch_options.sketch.theta));
  body.Set("mu", Json::Int(sketch_options.mu));
  body.Set("stripes", Json::Int(stripes));
  body.Set("threshold", Json::Number(threshold));
  return JsonResponse(201, body);
}

obs::HttpResponse LinkageService::InsertRecords(
    const Server::Request& request) {
  const std::shared_ptr<Index> index = FindIndex(request.Param("name"));
  if (index == nullptr) return ErrorResponse(404, "no such index");
  if (index->requests_insert) index->requests_insert->Inc();
  const uint64_t start_ns = index->latency ? obs::SteadyNowNanos() : 0;

  Result<Json> parsed = Json::Parse(request.http.body);
  if (!parsed.ok()) return ErrorResponse(400, parsed.status().message());
  const Json* records = parsed.value().Find("records");
  if (records == nullptr || !records->is_array()) {
    return ErrorResponse(400, "body must carry a records array");
  }
  if (records->array_items().size() > options_.max_batch_records) {
    return ErrorResponse(400, "batch too large (max " +
                                  std::to_string(options_.max_batch_records) +
                                  " records)");
  }

  const int required_fields =
      RequiredFields(*index->blocker, *index->similarity);
  uint64_t inserted = 0;
  for (const Json& json : records->array_items()) {
    Record record;
    const Status status = RecordFromJson(json, /*require_id=*/true, &record);
    if (!status.ok()) {
      return ErrorResponse(400, std::string(status.message()) +
                                    " (after " + std::to_string(inserted) +
                                    " inserted)");
    }
    if (record.fields.size() < static_cast<size_t>(required_fields)) {
      return ErrorResponse(
          400, "record " + std::to_string(record.id) + " has " +
                   std::to_string(record.fields.size()) + " fields, index " +
                   "needs " + std::to_string(required_fields));
    }
    const Status put = index->store.Put(record);
    if (!put.ok()) {
      return ErrorResponse(500, std::string(put.message()));
    }
    const std::string key_values = index->blocker->KeyValues(record);
    for (const std::string& key : index->blocker->Keys(record)) {
      const Status insert = index->sketch->Insert(key, key_values, record.id);
      if (!insert.ok()) {
        return ErrorResponse(500, std::string(insert.message()));
      }
    }
    ++inserted;
  }
  index->inserts.fetch_add(inserted, std::memory_order_relaxed);

  Json body = Json::Object();
  body.Set("index", Json::Str(index->name));
  body.Set("inserted", Json::Int(inserted));
  body.Set("records", Json::Int(index->store.size()));
  obs::HttpResponse response = JsonResponse(200, body);
  if (index->latency) index->latency->Record(obs::SteadyNowNanos() - start_ns);
  return response;
}

obs::HttpResponse LinkageService::Query(const Server::Request& request) {
  const std::shared_ptr<Index> index = FindIndex(request.Param("name"));
  if (index == nullptr) return ErrorResponse(404, "no such index");
  if (index->requests_query) index->requests_query->Inc();
  const uint64_t start_ns = index->latency ? obs::SteadyNowNanos() : 0;

  Result<Json> parsed = Json::Parse(request.http.body);
  if (!parsed.ok()) return ErrorResponse(400, parsed.status().message());
  const Json* record_json = parsed.value().Find("record");
  if (record_json == nullptr) {
    return ErrorResponse(400, "body must carry a record object");
  }
  Record query;
  const Status status =
      RecordFromJson(*record_json, /*require_id=*/false, &query);
  if (!status.ok()) return ErrorResponse(400, std::string(status.message()));
  const int required_fields =
      RequiredFields(*index->blocker, *index->similarity);
  if (query.fields.size() < static_cast<size_t>(required_fields)) {
    return ErrorResponse(400, "query record needs at least " +
                                  std::to_string(required_fields) + " fields");
  }
  bool verify = true;
  uint64_t limit = 0;
  FieldReader reader(parsed.value());
  reader.Read("verify", &verify);
  reader.Read("limit", &limit);
  if (!reader.status().ok()) {
    return ErrorResponse(400, reader.status().message());
  }

  // One warm set of buffers per server worker: past JSON parse and the
  // response body, a steady-state query allocates nothing.
  thread_local KeyScratch keys;
  thread_local QueryScratch scratch;
  const Status resolved = Resolve(*index, query, verify, &keys, &scratch);
  if (!resolved.ok()) {
    // Records are stored before they are routed and never removed, so a
    // routed id the store cannot produce is a server fault.
    return ErrorResponse(500, std::string(resolved.message()));
  }
  index->queries.fetch_add(1, std::memory_order_relaxed);

  // The body is written straight into the response with the helpers
  // Json::Dump is built on, so it is byte for byte what dumping the
  // equivalent Json tree produces.
  const size_t shown = verify ? scratch.scored.size()
                              : scratch.candidates.size();
  const size_t count = limit != 0 ? std::min<size_t>(limit, shown) : shown;
  obs::HttpResponse response;
  response.status = 200;
  response.content_type = "application/json";
  std::string& out = response.body;
  out.reserve(96 + index->name.size() + count * (verify ? 40 : 16));
  out += "{\"index\":";
  obs::AppendJsonString(index->name, &out);
  out += ",\"num_candidates\":";
  obs::AppendJsonNumber(static_cast<double>(scratch.candidates.size()), &out);
  out += verify ? ",\"verified\":true,\"matches\":["
                : ",\"verified\":false,\"matches\":[";
  for (size_t i = 0; i < count; ++i) {
    if (i != 0) out += ',';
    out += "{\"id\":";
    if (verify) {
      obs::AppendJsonNumber(static_cast<double>(scratch.scored[i].id), &out);
      out += ",\"score\":";
      obs::AppendJsonNumber(scratch.scored[i].score, &out);
    } else {
      obs::AppendJsonNumber(static_cast<double>(scratch.candidates[i]), &out);
    }
    out += '}';
  }
  out += "]}\n";
  if (index->latency) index->latency->Record(obs::SteadyNowNanos() - start_ns);
  return response;
}

Status LinkageService::ResolveQuery(std::string_view index_name,
                                    const Record& query, bool verify,
                                    KeyScratch* keys,
                                    QueryScratch* scratch) const {
  const std::shared_ptr<Index> index = FindIndex(index_name);
  if (index == nullptr) return Status::NotFound("no such index");
  return Resolve(*index, query, verify, keys, scratch);
}

Status LinkageService::Resolve(const Index& index, const Record& query,
                               bool verify, KeyScratch* keys,
                               QueryScratch* scratch) {
  // Candidate retrieval + verification run under an "engine" child span so
  // the API path traces as serve -> engine -> sketch, mirroring the CLI
  // resolve path.
  obs::Span engine_span("engine", "query");
  index.blocker->ExtractKeys(query, keys);
  Status status = CollectCandidates(*index.sketch, *keys, &scratch->groups);
  if (status.ok()) {
    status = ResolveCandidates(query, scratch->groups, verify,
                               *index.similarity, index.store, scratch);
  }
  // Unpin before returning: a CandidateList holds its PublishedBlock, and
  // the scratch outlives the request on its worker, where an idle pin would
  // keep a deleted tenant's blocks alive.
  scratch->groups.clear();
  SKETCHLINK_RETURN_IF_ERROR(status);
  // Best first; equal scores by ascending id.
  std::sort(scratch->scored.begin(), scratch->scored.end(),
            [](const ScoredMatch& a, const ScoredMatch& b) {
              return a.score > b.score || (a.score == b.score && a.id < b.id);
            });
  return Status::OK();
}

obs::HttpResponse LinkageService::ListIndexes(const Server::Request&) {
  std::vector<std::shared_ptr<Index>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, index] : indexes_) {
      if (index != nullptr) snapshot.push_back(index);  // skip reservations
    }
  }
  Json list = Json::Array();
  for (const auto& index : snapshot) {
    Json entry = Json::Object();
    entry.Set("name", Json::Str(index->name));
    entry.Set("kind",
              Json::Str(std::string(datagen::DatasetKindName(index->kind))));
    entry.Set("records", Json::Int(index->store.size()));
    entry.Set("live_blocks", Json::Int(index->sketch->num_live_blocks()));
    entry.Set("stripes", Json::Int(index->sketch->num_stripes()));
    entry.Set("mu", Json::Int(index->sketch->options().mu));
    entry.Set("threshold", Json::Number(index->threshold));
    entry.Set("inserts", Json::Int(index->inserts.load(std::memory_order_relaxed)));
    entry.Set("queries", Json::Int(index->queries.load(std::memory_order_relaxed)));
    entry.Set("memory_bytes",
              Json::Int(index->sketch->ApproximateMemoryUsage() +
                        index->store.ApproximateMemoryUsage()));
    list.Append(std::move(entry));
  }
  Json body = Json::Object();
  body.Set("indexes", std::move(list));
  return JsonResponse(200, body);
}

void LinkageService::ObserveShed(std::string_view index_name,
                                 std::string_view reason) {
  const std::shared_ptr<Index> index = FindIndex(index_name);
  if (index == nullptr) return;
  if (reason == "queue_full") {
    if (index->shed_queue_full) index->shed_queue_full->Inc();
  } else if (reason == "deadline") {
    if (index->shed_deadline) index->shed_deadline->Inc();
  }
}

std::string LinkageService::StatuszText() const {
  std::vector<std::shared_ptr<Index>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, index] : indexes_) {
      if (index != nullptr) snapshot.push_back(index);  // skip reservations
    }
  }
  std::string out = "tenants " + std::to_string(snapshot.size()) + "\n";
  for (const auto& index : snapshot) {
    const uint64_t memory = index->sketch->ApproximateMemoryUsage() +
                            index->store.ApproximateMemoryUsage();
    out += "tenant " + index->name +
           " records=" + std::to_string(index->store.size()) +
           " inserts=" +
           std::to_string(index->inserts.load(std::memory_order_relaxed)) +
           " queries=" +
           std::to_string(index->queries.load(std::memory_order_relaxed)) +
           " live_blocks=" +
           std::to_string(index->sketch->num_live_blocks()) +
           " memory_bytes=" + std::to_string(memory) + "\n";
  }
  return out;
}

obs::HttpResponse LinkageService::DeleteIndex(const Server::Request& request) {
  const std::string name(request.Param("name"));
  std::shared_ptr<Index> index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = indexes_.find(name);
    if (it == indexes_.end() || it->second == nullptr) {
      return ErrorResponse(404, "no such index");
    }
    index = std::move(it->second);
    indexes_.erase(it);
  }
  // `index` (plus any in-flight request holding the shared_ptr) keeps the
  // tenant alive; the last holder runs ~Index, which removes the spill dir.
  Json body = Json::Object();
  body.Set("deleted", Json::Str(name));
  return JsonResponse(200, body);
}

}  // namespace sketchlink::serve
