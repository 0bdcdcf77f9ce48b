#ifndef SKETCHLINK_CORE_SKETCH_METRICS_H_
#define SKETCHLINK_CORE_SKETCH_METRICS_H_

// Observability instruments of the sketch, plus the plain stat struct the
// public stats() accessors return. The instruments are the single source of
// truth — the stat struct is a thin view built on demand — so the same
// numbers back the historical accessors, the registry exporters, and the
// sharded aggregation (which merges instruments instead of adding view
// fields).

#include <atomic>
#include <cstdint>

#include "obs/instruments.h"

namespace sketchlink {

/// Counters for the experiments (view type; see SketchMetrics). The
/// residency fields stay zero on an unbounded sketch.
struct SketchStats {
  uint64_t inserts = 0;
  uint64_t queries = 0;
  /// Distance computations against representatives (the paper's "constant
  /// number of comparisons": lambda * rho per operation).
  uint64_t representative_comparisons = 0;
  uint64_t blocks_created = 0;
  /// Candidates handed to the matcher across all queries.
  uint64_t candidates_returned = 0;
  uint64_t query_misses = 0;  // queries for block keys the stream never made
  uint64_t live_hits = 0;     // operations served from the hash table T
  uint64_t disk_loads = 0;    // blocks pulled back from secondary storage
  uint64_t evictions = 0;     // blocks spilled to secondary storage
};

using BlockSketchStats = SketchStats;
using SBlockSketchStats = SketchStats;

/// Live instruments of one sketch. Counters always count (relaxed atomics,
/// plain-integer cost); the latency histograms only receive samples while
/// `timing_enabled` is set — flipped when the sketch is attached to an
/// enabled registry. It is an atomic flag (relaxed) because lock-free query
/// paths read it concurrently with EnableLatencyTiming. The residency
/// instruments (live hits through spill latencies) belong to the bounded
/// sketch's residency rule; nothing records them on an unbounded sketch.
struct SketchMetrics {
  obs::Counter inserts;
  obs::Counter queries;
  obs::Counter representative_comparisons;
  obs::Counter blocks_created;
  obs::Counter candidates_returned;
  obs::Counter query_misses;
  /// Kernel-path telemetry: routing decisions that took the batched kernel
  /// scan, representatives skipped by its prune bounds (pruning never
  /// changes the chosen sub-block), and the size distribution of those
  /// batches. All zero on the legacy scalar path.
  obs::Counter route_batches;
  obs::Counter reps_pruned;
  obs::Histogram route_batch_size;
  obs::Histogram query_latency_nanos;
  obs::Histogram insert_latency_nanos;
  obs::Counter live_hits;
  obs::Counter disk_loads;
  obs::Counter evictions;
  obs::Histogram spill_load_latency_nanos;   // reload from secondary storage
  obs::Histogram spill_write_latency_nanos;  // eviction encode + Put
  std::atomic<bool> timing_enabled{false};

  /// Adds `other`'s counters and histogram buckets into this accumulator —
  /// the shard-aggregation primitive (histograms merge exactly by bucket;
  /// percentiles are extracted only after merging, never averaged).
  void MergeFrom(const SketchMetrics& other) {
    inserts.Merge(other.inserts);
    queries.Merge(other.queries);
    representative_comparisons.Merge(other.representative_comparisons);
    blocks_created.Merge(other.blocks_created);
    candidates_returned.Merge(other.candidates_returned);
    query_misses.Merge(other.query_misses);
    route_batches.Merge(other.route_batches);
    reps_pruned.Merge(other.reps_pruned);
    route_batch_size.Merge(other.route_batch_size);
    query_latency_nanos.Merge(other.query_latency_nanos);
    insert_latency_nanos.Merge(other.insert_latency_nanos);
    live_hits.Merge(other.live_hits);
    disk_loads.Merge(other.disk_loads);
    evictions.Merge(other.evictions);
    spill_load_latency_nanos.Merge(other.spill_load_latency_nanos);
    spill_write_latency_nanos.Merge(other.spill_write_latency_nanos);
  }

  /// The historical stats view (one relaxed load per field).
  SketchStats ToStats() const {
    SketchStats stats;
    stats.inserts = inserts.value();
    stats.queries = queries.value();
    stats.representative_comparisons = representative_comparisons.value();
    stats.blocks_created = blocks_created.value();
    stats.candidates_returned = candidates_returned.value();
    stats.query_misses = query_misses.value();
    stats.live_hits = live_hits.value();
    stats.disk_loads = disk_loads.value();
    stats.evictions = evictions.value();
    return stats;
  }

  /// `histogram` while latency timing is armed, nullptr otherwise: the
  /// argument of an obs::LatencyTimer.
  obs::Histogram* timer(obs::Histogram* histogram) {
    return timing_enabled.load(std::memory_order_relaxed) ? histogram
                                                          : nullptr;
  }
};

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_SKETCH_METRICS_H_
