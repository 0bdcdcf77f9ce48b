#ifndef SKETCHLINK_LINKAGE_MATCHER_H_
#define SKETCHLINK_LINKAGE_MATCHER_H_

#include <string>
#include <vector>

#include "blocking/blocker.h"
#include "common/flat_set.h"
#include "common/status.h"
#include "core/published_block.h"
#include "linkage/record_store.h"
#include "linkage/similarity.h"
#include "obs/registry.h"
#include "record/record.h"

namespace sketchlink {

class ThreadPool;

/// One verified candidate: its similarity to the query, and its id.
struct ScoredMatch {
  double score;
  RecordId id;
};

/// Reusable per-thread buffers for one query resolution. Everything keeps
/// its capacity across queries (CandidateList pins are dropped by clear(),
/// FlatIdSet clears by generation bump, the scorer re-binds in place), so a
/// warm scratch makes the steady-state resolve path allocation-free.
struct QueryScratch {
  std::vector<CandidateList> groups;  // pinned candidate views per key
  FlatIdSet seen;                     // per-query duplicate-pair filter
  std::vector<RecordId> candidates;   // deduplicated ids, first-seen order
  std::vector<RecordView> views;      // candidates' stored records
  SimilarityScorer scorer;            // bound to the current query
  std::string norm_scratch;           // candidate-field normalization buffer
  std::vector<ScoredMatch> scored;    // verified candidates >= threshold
  std::vector<RecordId> matches;      // the query's result set
};

/// The verified-query routine: the engine's matchers and the service's
/// query handler both resolve through it. Dedupes the ids of `groups` into
/// scratch->candidates in first-seen order (duplicate pairs from redundant
/// blocking are dropped, paper Sec. 7.2 footnote 17). With `verify` it then
/// fetches the candidates' records in one RecordStore::GetViews call,
/// scores each against `query` in place, and appends (score, id) to
/// scratch->scored, in candidate order, for every score at or above the
/// similarity threshold. A candidate missing from `store` fails the call
/// with the store's status. Templated over the group container: the
/// sketches hand over pinned CandidateList views, the naive matcher plain
/// id vectors.
template <typename CandidateGroups>
Status ResolveCandidates(const Record& query, const CandidateGroups& groups,
                         bool verify, const RecordSimilarity& similarity,
                         const RecordStore& store, QueryScratch* scratch) {
  scratch->seen.Clear();
  scratch->candidates.clear();
  scratch->scored.clear();
  for (const auto& group : groups) {
    for (const RecordId id : group) {
      if (scratch->seen.Insert(id)) scratch->candidates.push_back(id);
    }
  }
  if (!verify) return Status::OK();
  SKETCHLINK_RETURN_IF_ERROR(
      store.GetViews(scratch->candidates, &scratch->views));
  // Query-side normalization happens once per query, in reused buffers.
  scratch->scorer.Bind(similarity, query);
  for (size_t i = 0; i < scratch->candidates.size(); ++i) {
    const double score =
        scratch->scorer.Similarity(scratch->views[i], &scratch->norm_scratch);
    if (score >= similarity.threshold()) {
      scratch->scored.push_back(ScoredMatch{score, scratch->candidates[i]});
    }
  }
  return Status::OK();
}

/// One data-set record with its blocking keys already computed. BuildIndex
/// prepares these in parallel (key extraction is pure), then hands the whole
/// batch to the matcher. `record` points into the dataset and must outlive
/// the batch.
struct PreparedRecord {
  const Record* record;
  std::vector<std::string> keys;
  std::string key_values;
};

/// Common driver interface for every online record-linkage method in the
/// evaluation (BlockSketch, SBlockSketch, the naive full-block scan, and
/// the INV / EO baselines). The engine feeds data-set records through
/// Insert() during the blocking phase and resolves query records through
/// ResolveInto() during the matching phase.
class OnlineMatcher {
 public:
  virtual ~OnlineMatcher() = default;

  /// Indexes one data-set record under its blocking `keys`. `key_values` is
  /// the record's untruncated, normalized blocking-field string (what
  /// BlockSketch measures distances on); methods that don't need it may
  /// ignore it.
  virtual Status Insert(const Record& record,
                        const std::vector<std::string>& keys,
                        const std::string& key_values) = 0;

  /// Indexes a whole prepared batch, using `pool` (may be null) where the
  /// method supports parallel builds. The default keeps sequential insertion
  /// semantics; overriding methods must produce results identical to the
  /// sequential loop at every pool size.
  virtual Status InsertBatch(const std::vector<PreparedRecord>& batch,
                             ThreadPool* pool) {
    (void)pool;
    for (const PreparedRecord& prepared : batch) {
      Status status =
          Insert(*prepared.record, prepared.keys, prepared.key_values);
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

  /// True when ResolveInto may be called from several threads at once.
  /// Methods whose resolution mutates shared state without internal
  /// locking (EO, INV, PPRL) keep the default.
  virtual bool SupportsConcurrentResolve() const { return false; }

  /// Resolves a query record whose blocking keys are `keys`: the ids of the
  /// records this method reports as matches (its "result set") land in
  /// `scratch->matches`. Precision/recall are computed over exactly these
  /// pairs. The sketch matchers run the steady-state query without heap
  /// allocations once the scratch is warm.
  virtual Status ResolveInto(const Record& query, const KeyScratch& keys,
                             QueryScratch* scratch) = 0;

  /// Similarity computations performed so far (the cost driver the paper
  /// tracks).
  virtual uint64_t comparisons() const = 0;

  /// In-memory footprint of the method's own structures.
  virtual size_t ApproximateMemoryUsage() const = 0;

  virtual std::string name() const = 0;

  /// Attaches this matcher's instruments to `registry` under the `instance`
  /// label, enabling latency timing when the registry is enabled. The
  /// matcher owns the registration handles, so its destruction deregisters
  /// them. Default: nothing to export.
  virtual void RegisterMetrics(obs::Registry* registry,
                               const std::string& instance) {
    (void)registry;
    (void)instance;
  }
};

}  // namespace sketchlink

#endif  // SKETCHLINK_LINKAGE_MATCHER_H_
