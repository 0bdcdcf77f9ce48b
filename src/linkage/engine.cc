#include "linkage/engine.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace sketchlink {

namespace {

uint64_t SecondsToNanos(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
}

}  // namespace

LinkageEngine::LinkageEngine(const Blocker* blocker, OnlineMatcher* matcher,
                             RecordSimilarity similarity,
                             const EngineOptions& options)
    : blocker_(blocker),
      matcher_(matcher),
      similarity_(std::move(similarity)),
      tracer_(options.tracer) {
  const size_t threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                                  : options.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  if (options.registry != nullptr) {
    RegisterMetrics(options.registry, options.metrics_instance);
  }
}

void LinkageEngine::RegisterMetrics(obs::Registry* registry,
                                    const std::string& instance) {
  metrics_.timing_enabled = registry->enabled();
  matcher_->RegisterMetrics(registry, instance);
  auto& regs = metric_registrations_;
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"instance", instance}};
  regs.push_back(registry->AddCounter(
      obs::MetricId("sketchlink_engine_builds_total", "BuildIndex calls",
                    labels),
      &metrics_.builds));
  regs.push_back(registry->AddCounter(
      obs::MetricId("sketchlink_engine_records_indexed_total",
                    "Records pushed through the blocking phase", labels),
      &metrics_.records_indexed));
  regs.push_back(registry->AddCounter(
      obs::MetricId("sketchlink_engine_resolve_runs_total",
                    "ResolveAll calls", labels),
      &metrics_.resolve_runs));
  regs.push_back(registry->AddCounter(
      obs::MetricId("sketchlink_engine_queries_resolved_total",
                    "Queries resolved", labels),
      &metrics_.queries_resolved));
  regs.push_back(registry->AddHistogram(
      obs::MetricId("sketchlink_engine_build_duration_nanos",
                    "Blocking-phase duration per BuildIndex call", labels),
      &metrics_.build_duration_nanos));
  regs.push_back(registry->AddHistogram(
      obs::MetricId("sketchlink_engine_resolve_duration_nanos",
                    "Matching-phase duration per ResolveAll call", labels),
      &metrics_.resolve_duration_nanos));
  regs.push_back(registry->AddHistogramFn(
      obs::MetricId("sketchlink_engine_query_latency_nanos",
                    "Per-query resolution latency", labels),
      [this] { return metrics_.query_latency_nanos.Snapshot(); }));
  if (pool_ != nullptr) {
    if (registry->enabled()) pool_->EnableLatencyTiming();
    regs.push_back(registry->AddCallbackGauge(
        obs::MetricId("sketchlink_pool_queue_depth",
                      "Shards submitted but not yet completed", labels),
        [this] {
          return static_cast<double>(pool_->metrics().queue_depth.value());
        }));
    regs.push_back(registry->AddCounter(
        obs::MetricId("sketchlink_pool_batches_total",
                      "Shard batches submitted to the pool", labels),
        &pool_->metrics().batches));
    regs.push_back(registry->AddCounter(
        obs::MetricId("sketchlink_pool_shards_total",
                      "Shards executed by the pool", labels),
        &pool_->metrics().shards));
    regs.push_back(registry->AddHistogram(
        obs::MetricId("sketchlink_pool_batch_latency_nanos",
                      "RunShards wall time per batch", labels),
        &pool_->metrics().batch_latency_nanos));
  }
}

Status LinkageEngine::BuildIndex(const Dataset& a) {
  // Phase traces are forced past head sampling: there are a handful per
  // process and they are exactly what "why was this build slow" needs.
  obs::TraceScope trace =
      tracer_ != nullptr
          ? tracer_->StartTrace("engine", "build_index", /*force=*/true)
          : obs::TraceScope();
  Stopwatch watch;
  const std::vector<Record>& records = a.records();

  // Key extraction is a pure function of the record: prepare the whole batch
  // in parallel (each index written by exactly one chunk), then hand it to
  // the matcher in dataset order.
  std::vector<PreparedRecord> batch(records.size());
  const auto prepare = [&](size_t begin, size_t end) {
    obs::Span span("engine", "prepare_chunk");
    // ExtractKeys normalizes each blocking field once for key and
    // key-values together; the batch still owns its strings (copied out of
    // the chunk-local scratch).
    KeyScratch scratch;
    for (size_t i = begin; i < end; ++i) {
      batch[i].record = &records[i];
      blocker_->ExtractKeys(records[i], &scratch);
      batch[i].keys.assign(scratch.keys.begin(),
                           scratch.keys.begin() + scratch.num_keys);
      batch[i].key_values = scratch.key_values;
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(records.size(), prepare);
  } else {
    prepare(0, records.size());
  }

  {
    obs::Span span("engine", "insert_batch");
    Status status = matcher_->InsertBatch(batch, pool_.get());
    if (!status.ok()) {
      span.MarkError();
      trace.MarkError();
      return status;
    }
  }
  const double seconds = watch.ElapsedSeconds();
  blocking_seconds_ += seconds;
  metrics_.builds.Inc();
  metrics_.records_indexed.Add(records.size());
  if (metrics_.timing_enabled) {
    // Recorded from the Stopwatch the report needs anyway — no extra clock.
    metrics_.build_duration_nanos.Record(SecondsToNanos(seconds));
  }
  return Status::OK();
}

Result<std::vector<RecordId>> LinkageEngine::ResolveOne(const Record& query) {
  KeyScratch keys;
  QueryScratch scratch;
  SKETCHLINK_RETURN_IF_ERROR(ResolveOneInto(query, &keys, &scratch));
  return std::move(scratch.matches);
}

Status LinkageEngine::ResolveOneInto(const Record& query, KeyScratch* keys,
                                     QueryScratch* scratch) {
  // Every query gets its own head-sampled trace, even under a ResolveAll
  // phase trace: per-query identity is what gives the tail sampler a
  // slowest-N to rank (a phase-wide trace would blur all queries together).
  obs::TraceScope trace = tracer_ != nullptr
                              ? tracer_->StartTrace("engine", "query")
                              : obs::TraceScope();
  obs::StripedLatencyTimer timer(
      metrics_.timing_enabled && SKETCHLINK_OBS_SAMPLE_HIT()
          ? &metrics_.query_latency_nanos
          : nullptr);
  blocker_->ExtractKeys(query, keys);
  Status status = matcher_->ResolveInto(query, *keys, scratch);
  if (!status.ok()) trace.MarkError();
  metrics_.queries_resolved.Inc();
  return status;
}

Result<LinkageReport> LinkageEngine::ResolveAll(const Dataset& q,
                                                const GroundTruth& truth) {
  LinkageReport report;
  report.method = matcher_->name();
  report.blocking = blocker_->name();
  report.threads = num_threads();
  report.blocking_seconds = blocking_seconds_;

  obs::TraceScope trace =
      tracer_ != nullptr
          ? tracer_->StartTrace("engine", "resolve_all", /*force=*/true)
          : obs::TraceScope();
  QualityScorer scorer(&truth);
  Stopwatch watch;
  if (pool_ != nullptr && matcher_->SupportsConcurrentResolve()) {
    // Fan the queries across the pool with one scorer and one status per
    // chunk. Chunk boundaries depend only on |Q| and the thread count; the
    // scorer totals are integer sums, so merging them in chunk order
    // reproduces the sequential counts exactly.
    const std::vector<Record>& queries = q.records();
    const size_t chunks = std::min(pool_->num_threads(),
                                   std::max<size_t>(queries.size(), 1));
    std::vector<QualityScorer> chunk_scorers(chunks, QualityScorer(&truth));
    std::vector<Status> chunk_status(chunks);
    // One chunk hitting a storage error (e.g. a poisoned spill Db) stops
    // the others at their next query instead of letting them grind through
    // a failing store; the first chunk's status in index order is returned.
    std::atomic<bool> failed{false};
    pool_->RunShards(chunks, [&](size_t chunk) {
      // Parents to the resolve_all root via the context the pool carried
      // into this shard, whichever thread runs it.
      obs::Span span("engine", "resolve_chunk");
      // Per-query traces are independent of the phase trace (StartTrace
      // always mints a fresh identity), so mute the phase context for the
      // query loop: un-admitted queries then cost a null check per span
      // instead of a context save/restore per query.
      obs::ScopedTraceContext mute{obs::TraceContext()};
      const size_t begin = chunk * queries.size() / chunks;
      const size_t end = (chunk + 1) * queries.size() / chunks;
      // One scratch pair per chunk: after the first few queries warm the
      // buffers, every remaining query in the chunk resolves without heap
      // allocations (DESIGN.md §12).
      KeyScratch keys;
      QueryScratch scratch;
      for (size_t i = begin; i < end; ++i) {
        if (failed.load(std::memory_order_relaxed)) return;
        Status status = ResolveOneInto(queries[i], &keys, &scratch);
        if (!status.ok()) {
          chunk_status[chunk] = status;
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        chunk_scorers[chunk].AddQueryResult(queries[i], scratch.matches);
      }
    });
    for (size_t chunk = 0; chunk < chunks; ++chunk) {
      if (!chunk_status[chunk].ok()) {
        trace.MarkError();
        return chunk_status[chunk];
      }
      scorer.Merge(chunk_scorers[chunk]);
    }
  } else {
    KeyScratch keys;
    QueryScratch scratch;
    for (const Record& query : q.records()) {
      Status status = ResolveOneInto(query, &keys, &scratch);
      if (!status.ok()) {
        trace.MarkError();
        return status;
      }
      scorer.AddQueryResult(query, scratch.matches);
    }
  }
  report.matching_seconds = watch.ElapsedSeconds();
  metrics_.resolve_runs.Inc();
  if (metrics_.timing_enabled) {
    metrics_.resolve_duration_nanos.Record(
        SecondsToNanos(report.matching_seconds));
  }
  report.avg_query_seconds =
      q.empty() ? 0.0 : report.matching_seconds / static_cast<double>(q.size());
  report.queries_per_second =
      report.matching_seconds > 0.0
          ? static_cast<double>(q.size()) / report.matching_seconds
          : 0.0;
  report.comparisons = matcher_->comparisons();
  report.matcher_memory_bytes = matcher_->ApproximateMemoryUsage();
  report.quality = scorer.Finalize();
  return report;
}

}  // namespace sketchlink
