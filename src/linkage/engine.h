#ifndef SKETCHLINK_LINKAGE_ENGINE_H_
#define SKETCHLINK_LINKAGE_ENGINE_H_

#include <memory>
#include <string>

#include "blocking/blocker.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "linkage/matcher.h"
#include "linkage/metrics.h"
#include "linkage/similarity.h"
#include "obs/spans.h"
#include "record/record.h"

namespace sketchlink {

/// Timing/quality summary of one end-to-end linkage run — one row of the
/// paper's Figs. 7-9 / Table 4.
struct LinkageReport {
  std::string method;
  std::string blocking;
  size_t threads = 1;                 // parallelism the run was driven with
  double blocking_seconds = 0.0;      // time to index A (blocking phase)
  double matching_seconds = 0.0;      // time to resolve all of Q
  double avg_query_seconds = 0.0;     // matching_seconds / |Q|
  double queries_per_second = 0.0;    // |Q| / matching_seconds
  uint64_t comparisons = 0;           // similarity computations
  size_t matcher_memory_bytes = 0;
  QualityMetrics quality;
};

/// Parallelism knobs of the engine.
struct EngineOptions {
  /// Worker threads driving BuildIndex/ResolveAll; 0 picks
  /// hardware_concurrency(). Results are identical at every setting — only
  /// wall-clock changes (see DESIGN.md, Threading model).
  size_t num_threads = 1;

  /// Metric registry the engine (and its matcher + thread pool) report
  /// into. nullptr or a NullRegistry leaves the pipeline unobserved: no
  /// per-query clock reads happen. Not owned; must outlive the engine.
  obs::Registry* registry = nullptr;

  /// `instance` label for this engine's metrics.
  std::string metrics_instance = "engine";

  /// Span tracer for the request path. nullptr disables tracing entirely
  /// (no per-query sampling tick, not even a null check beyond this
  /// pointer). Not owned; must outlive the engine. Each ResolveOne starts
  /// its own (head-sampled) trace; BuildIndex and ResolveAll start forced
  /// phase traces whose chunk spans land on pool workers via the
  /// TraceContext the pool propagates.
  obs::Tracer* tracer = nullptr;
};

/// Live instruments of one LinkageEngine. Phase durations are recorded from
/// the Stopwatch measurements the LinkageReport needs anyway (no extra
/// clock reads); the per-query histogram is armed only with an enabled
/// registry.
struct EngineMetrics {
  obs::Counter builds;            // BuildIndex calls
  obs::Counter records_indexed;   // records pushed through blocking
  obs::Counter resolve_runs;      // ResolveAll calls
  obs::Counter queries_resolved;  // queries resolved (incl. ResolveOne)
  obs::Histogram build_duration_nanos;
  obs::Histogram resolve_duration_nanos;
  // Striped: every worker thread records here on every query, and a single
  // histogram's cache lines would serialize them (see StripedHistogram).
  obs::StripedHistogram query_latency_nanos;
  bool timing_enabled = false;  // set once at construction
};

/// Orchestrates one experiment: pushes the data set A through blocking into
/// the matcher, then resolves every query of Q, timing both phases and
/// scoring the result sets against ground truth.
class LinkageEngine {
 public:
  /// All pointers must outlive the engine.
  LinkageEngine(const Blocker* blocker, OnlineMatcher* matcher,
                RecordSimilarity similarity,
                const EngineOptions& options = EngineOptions());

  /// Blocking phase: indexes every record of `a`. Blocking-key extraction is
  /// parallelized across the pool; the insert order seen by the matcher is
  /// the dataset order regardless of thread count.
  Status BuildIndex(const Dataset& a);

  /// Matching phase: resolves every record of `q` and fills a report.
  /// `truth` scores result sets; pass the GroundTruth built over `a`.
  /// Queries fan out across the pool when the matcher supports concurrent
  /// resolution; per-thread quality accumulators are merged exactly, so the
  /// report is identical at every thread count.
  Result<LinkageReport> ResolveAll(const Dataset& q, const GroundTruth& truth);

  /// Resolves a single query (for interactive / example use).
  Result<std::vector<RecordId>> ResolveOne(const Record& query);

  /// ResolveOne into reused buffers: keys land in `*keys`, the result set in
  /// `scratch->matches`. With warm scratches and a sketch matcher this runs
  /// the whole steady-state query without heap allocations; ResolveAll keeps
  /// one scratch pair per chunk. Results identical to ResolveOne.
  Status ResolveOneInto(const Record& query, KeyScratch* keys,
                        QueryScratch* scratch);

  double blocking_seconds() const { return blocking_seconds_; }

  /// Effective parallelism (1 when no pool was created).
  size_t num_threads() const {
    return pool_ == nullptr ? 1 : pool_->num_threads();
  }

  /// Live instruments (registry closures and tests read these directly).
  const EngineMetrics& metrics() const { return metrics_; }

 private:
  void RegisterMetrics(obs::Registry* registry, const std::string& instance);

  const Blocker* blocker_;
  OnlineMatcher* matcher_;
  RecordSimilarity similarity_;
  std::unique_ptr<ThreadPool> pool_;  // null when running single-threaded
  double blocking_seconds_ = 0.0;
  mutable EngineMetrics metrics_;
  obs::Tracer* tracer_ = nullptr;  // span tracing; may be null
  // Declared last: deregistration (whose closures read this engine and its
  // pool) must run before the members they read are torn down.
  std::vector<obs::Registration> metric_registrations_;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_LINKAGE_ENGINE_H_
