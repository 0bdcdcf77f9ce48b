#ifndef SKETCHLINK_SERVE_SERVICE_H_
#define SKETCHLINK_SERVE_SERVICE_H_

// Linkage-as-a-service: multi-tenant named indexes over the streaming
// summarization stack, exposed as a small JSON-over-HTTP API. Each index
// owns the full per-tenant pipeline — a ShardedSBlockSketch with its own
// sketch configuration and memory budget, a spill kv::Db under the scratch
// directory, a blocking scheme, a RecordSimilarity — with an independent
// lifecycle (create / insert / query / delete).
//
//   POST   /v1/indexes/{name}           create (JSON config body, 201/409)
//   POST   /v1/indexes/{name}/records   batched insert
//   POST   /v1/indexes/{name}/query     candidate retrieval (+ optional
//                                       similarity verification)
//   GET    /v1/indexes                  list + per-index stats
//   DELETE /v1/indexes/{name}           drop the index and its spill data
//
// Concurrency: the name->index map is mutex-guarded; operations resolve
// the shared_ptr under the lock and then run lock-free against the index
// (the sketch is internally synchronized, the record store reader/writer
// locked). DELETE only erases the map entry — in-flight requests holding
// the shared_ptr finish safely, and the last holder tears the index down
// (including removing its spill directory).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "blocking/presets.h"
#include "common/status.h"
#include "core/sharded_sketch.h"
#include "datagen/generators.h"
#include "kv/db.h"
#include "linkage/matcher.h"
#include "linkage/record_store.h"
#include "linkage/similarity.h"
#include "obs/metric_family.h"
#include "serve/json.h"
#include "serve/server.h"

namespace sketchlink::serve {

class LinkageService {
 public:
  struct Options {
    /// Root of per-index spill directories (created on demand; each index
    /// gets scratch_dir/<name>, removed when the index is deleted).
    std::string scratch_dir = "/tmp/sketchlink_api";
    /// Hard cap on concurrently existing indexes (409 beyond it).
    size_t max_indexes = 16;
    /// Hard cap on records per insert batch (400 beyond it).
    size_t max_batch_records = 10'000;
    /// When set, per-index sketch instruments register here under the
    /// index name (must outlive the service).
    obs::Registry* registry = nullptr;
  };

  explicit LinkageService(const Options& options);
  ~LinkageService();

  LinkageService(const LinkageService&) = delete;
  LinkageService& operator=(const LinkageService&) = delete;

  /// Wires the five endpoints onto `server`. The service must outlive it.
  void RegisterRoutes(Server* server);

  // Endpoint implementations (public so unit tests can drive them without
  // a socket; the Server routes call exactly these).
  obs::HttpResponse CreateIndex(const Server::Request& request);
  obs::HttpResponse InsertRecords(const Server::Request& request);
  obs::HttpResponse Query(const Server::Request& request);
  obs::HttpResponse ListIndexes(const Server::Request& request);
  obs::HttpResponse DeleteIndex(const Server::Request& request);

  size_t num_indexes() const;

  /// Query's work between request parse and response write, on the named
  /// index: blocking keys into `keys`, then the engine's verified-query
  /// routine (ResolveCandidates) into `scratch`, whose `candidates` hold
  /// the deduplicated candidates and, when `verify`, whose `scored` holds
  /// the matches ranked best first (equal scores by ascending id). No
  /// candidate pins remain in `scratch` afterwards. NotFound for an unknown
  /// index. Allocation-free once both scratches are warm; public so tests
  /// can check that.
  Status ResolveQuery(std::string_view index, const Record& query,
                      bool verify, KeyScratch* keys,
                      QueryScratch* scratch) const;

  /// Attributes one shed to the named tenant's shed family (no-op for an
  /// unknown index or reason). Wire as Server::Options::shed_observer.
  void ObserveShed(std::string_view index, std::string_view reason);

  /// Per-tenant table for /statusz: one line per index with record,
  /// insert/query, and shed totals.
  std::string StatuszText() const;

 private:
  /// One tenant. Declaration order is teardown-critical: the sketch spills
  /// into spill_db on destruction, so spill_db must outlive it (members
  /// destroy in reverse order).
  struct Index {
    std::string name;
    datagen::DatasetKind kind;
    double threshold = 0.75;
    std::string spill_dir;
    std::unique_ptr<kv::Db> spill_db;
    std::unique_ptr<StandardBlocker> blocker;
    std::unique_ptr<RecordSimilarity> similarity;
    std::unique_ptr<ShardedSBlockSketch> sketch;
    RecordStore store;
    std::vector<obs::Registration> metric_regs;
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> queries{0};

    // Per-tenant labeled children (see obs/metric_family.h). The handles
    // own the registrations, so they live exactly as long as this Index:
    // DELETE drops the map entry, in-flight requests holding the
    // shared_ptr keep incrementing safely, and the last holder's teardown
    // deregisters every child — the tenant's series vanish from /metrics.
    obs::CounterFamily::Handle requests_insert;
    obs::CounterFamily::Handle requests_query;
    obs::CounterFamily::Handle shed_queue_full;
    obs::CounterFamily::Handle shed_deadline;
    obs::HistogramFamily::Handle latency;

    ~Index();
  };

  std::shared_ptr<Index> FindIndex(std::string_view name) const;

  /// ResolveQuery on an index already looked up.
  static Status Resolve(const Index& index, const Record& query, bool verify,
                        KeyScratch* keys, QueryScratch* scratch);

  Options options_;
  // Per-tenant metric families, bounded by max_indexes (+1 for the shared
  // overflow child). Declared before indexes_ so they outlive every Index
  // holding handles into them during ~LinkageService.
  std::unique_ptr<obs::CounterFamily> requests_family_;
  std::unique_ptr<obs::CounterFamily> sheds_family_;
  std::unique_ptr<obs::HistogramFamily> latency_family_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Index>, std::less<>> indexes_;
  /// Monotonic suffix for spill dirs: a re-created index must never share a
  /// directory with a dying incarnation of the same name.
  std::atomic<uint64_t> next_incarnation_{0};
};

}  // namespace sketchlink::serve

#endif  // SKETCHLINK_SERVE_SERVICE_H_
