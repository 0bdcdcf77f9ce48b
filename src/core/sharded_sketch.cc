#include "core/sharded_sketch.h"

#include <algorithm>

#include "common/hash.h"

namespace sketchlink {

namespace {

/// Decorrelates the stripes' coin-flip streams: each stripe gets its own RNG
/// seed derived from the base seed, so stripe s makes the same decisions in
/// every run (and at every thread count) but different stripes do not march
/// in lockstep.
uint64_t StripeSeed(uint64_t base_seed, size_t stripe) {
  return base_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(stripe + 1));
}

}  // namespace

template <Residency kResidency>
ShardedSketch<kResidency>::ShardedSketch(const BlockSketchOptions& options,
                                         KeyDistanceFn distance,
                                         size_t num_stripes)
  requires(!kBounded)
    : options_(options) {
  num_stripes = std::max<size_t>(num_stripes, 1);
  stripes_.reserve(num_stripes);
  for (size_t s = 0; s < num_stripes; ++s) {
    BlockSketchOptions stripe_options = options;
    stripe_options.seed = StripeSeed(options.seed, s);
    stripes_.push_back(std::make_unique<Stripe>(stripe_options, distance));
  }
}

template <Residency kResidency>
size_t ShardedSketch<kResidency>::StripeMuBudget(size_t mu, size_t num_stripes,
                                                 size_t stripe)
  requires(kBounded) {
  if (mu == SIZE_MAX) return SIZE_MAX;
  if (num_stripes == 0) return mu;
  const size_t base = mu / num_stripes;
  const size_t budget = base + (stripe < mu % num_stripes ? 1 : 0);
  return std::max<size_t>(1, budget);
}

template <Residency kResidency>
ShardedSketch<kResidency>::ShardedSketch(const SBlockSketchOptions& options,
                                         kv::Db* spill_db,
                                         KeyDistanceFn distance,
                                         size_t num_stripes)
  requires(kBounded)
    : options_(options) {
  num_stripes = std::max<size_t>(num_stripes, 1);
  stripes_.reserve(num_stripes);
  for (size_t s = 0; s < num_stripes; ++s) {
    SBlockSketchOptions stripe_options = options;
    stripe_options.sketch.seed = StripeSeed(options.sketch.seed, s);
    stripe_options.mu = StripeMuBudget(options.mu, num_stripes, s);
    stripes_.push_back(std::make_unique<Stripe>(stripe_options, spill_db,
                                                distance, &maintenance_));
  }
}

template <Residency kResidency>
size_t ShardedSketch<kResidency>::StripeOf(std::string_view block_key) const {
  return Fnv1a64(block_key) % stripes_.size();
}

template <Residency kResidency>
typename ShardedSketch<kResidency>::InsertStatus
ShardedSketch<kResidency>::Insert(std::string_view block_key,
                                  std::string_view key_values, RecordId id) {
  return stripes_[StripeOf(block_key)]->Insert(block_key, key_values, id);
}

template <Residency kResidency>
typename ShardedSketch<kResidency>::InsertStatus
ShardedSketch<kResidency>::InsertBatch(const std::vector<SketchInsert>& entries,
                                       ThreadPool* pool) {
  // Buckets the batch per stripe preserving submission order within each
  // stripe — the load-bearing step of the determinism guarantee.
  std::vector<std::vector<const SketchInsert*>> buckets(stripes_.size());
  for (const SketchInsert& entry : entries) {
    buckets[StripeOf(*entry.block_key)].push_back(&entry);
  }
  std::vector<Status> results(kBounded ? stripes_.size() : 0);
  const auto drain = [&](size_t s) {
    Stripe& sketch = *stripes_[s];
    for (const SketchInsert* entry : buckets[s]) {
      if constexpr (kBounded) {
        Status status =
            sketch.Insert(*entry->block_key, *entry->key_values, entry->id);
        if (!status.ok()) {
          results[s] = std::move(status);
          return;
        }
      } else {
        sketch.Insert(*entry->block_key, *entry->key_values, entry->id);
      }
    }
  };
  if (pool != nullptr) {
    pool->RunShards(stripes_.size(), drain);
  } else {
    for (size_t s = 0; s < stripes_.size(); ++s) drain(s);
  }
  if constexpr (kBounded) {
    for (Status& status : results) {
      if (!status.ok()) return std::move(status);
    }
    return Status::OK();
  }
}

template <Residency kResidency>
size_t ShardedSketch<kResidency>::num_live_blocks() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) total += stripe->num_live_blocks();
  return total;
}

template <Residency kResidency>
Status ShardedSketch<kResidency>::WaitForMaintenance() requires(kBounded) {
  Status first;
  for (const auto& stripe : stripes_) {
    Status status = stripe->WaitForMaintenance();
    if (first.ok() && !status.ok()) first = std::move(status);
  }
  return first;
}

template <Residency kResidency>
void ShardedSketch<kResidency>::MergeMetricsInto(SketchMetrics* out) const {
  // Instrument reads are relaxed-atomic: a merge racing with writers yields
  // a consistent-enough cut, same contract as a registry snapshot.
  for (const auto& stripe : stripes_) {
    out->MergeFrom(stripe->metrics());
  }
}

template <Residency kResidency>
SketchStats ShardedSketch<kResidency>::stats() const {
  SketchMetrics merged;
  MergeMetricsInto(&merged);
  return merged.ToStats();
}

template <Residency kResidency>
void ShardedSketch<kResidency>::EnableLatencyTiming() {
  for (const auto& stripe : stripes_) stripe->EnableLatencyTiming();
}

template <Residency kResidency>
std::vector<obs::Registration> ShardedSketch<kResidency>::RegisterMetrics(
    obs::Registry* registry, const std::string& instance) {
  std::vector<obs::Registration> regs;
  if (registry == nullptr) return regs;
  if (registry->enabled()) EnableLatencyTiming();
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"instance", instance}, {"kind", kBounded ? "sblock" : "block"}};
  const auto add_counter = [&](const char* name, const char* help,
                               obs::Counter SketchMetrics::*field) {
    regs.push_back(registry->AddCounterFn(
        obs::MetricId(name, help, labels), [this, field] {
          uint64_t total = 0;
          for (const auto& stripe : stripes_) {
            total += (stripe->metrics().*field).value();
          }
          return total;
        }));
  };
  const auto add_histogram = [&](const char* name, const char* help,
                                 obs::Histogram SketchMetrics::*field) {
    regs.push_back(registry->AddHistogramFn(
        obs::MetricId(name, help, labels), [this, field] {
          obs::Histogram merged;
          for (const auto& stripe : stripes_) {
            merged.Merge(stripe->metrics().*field);
          }
          return merged.Snapshot();
        }));
  };
  add_counter("sketchlink_sketch_inserts_total", "Records routed into the sketch",
              &SketchMetrics::inserts);
  add_counter("sketchlink_sketch_queries_total", "Candidate queries served",
              &SketchMetrics::queries);
  if constexpr (kBounded) {
    add_counter("sketchlink_sketch_live_hits_total",
                "Operations served from the live table",
                &SketchMetrics::live_hits);
    add_counter("sketchlink_sketch_disk_loads_total",
                "Blocks reloaded from the spill store",
                &SketchMetrics::disk_loads);
    add_counter("sketchlink_sketch_evictions_total",
                "Blocks spilled to secondary storage",
                &SketchMetrics::evictions);
    add_counter("sketchlink_sketch_query_misses_total",
                "Queries for block keys the stream never produced",
                &SketchMetrics::query_misses);
  }
  add_counter("sketchlink_sketch_representative_comparisons_total",
              "Distance computations against representatives",
              &SketchMetrics::representative_comparisons);
  if constexpr (!kBounded) {
    add_counter("sketchlink_sketch_blocks_created_total",
                "Blocks created on first contact",
                &SketchMetrics::blocks_created);
  }
  add_counter("sketchlink_sketch_candidates_returned_total",
              "Candidate ids handed to the matcher",
              &SketchMetrics::candidates_returned);
  add_counter("sketchlink_sketch_route_batches_total",
              "Routing decisions taken by the batched kernel path",
              &SketchMetrics::route_batches);
  add_counter("sketchlink_sketch_reps_pruned_total",
              "Representatives skipped by kernel prune bounds",
              &SketchMetrics::reps_pruned);
  add_histogram("sketchlink_sketch_route_batch_size",
                "Representatives per batched routing decision",
                &SketchMetrics::route_batch_size);
  add_histogram("sketchlink_sketch_query_latency_nanos",
                "Per-query sketch latency",
                &SketchMetrics::query_latency_nanos);
  add_histogram("sketchlink_sketch_insert_latency_nanos",
                "Per-insert sketch latency",
                &SketchMetrics::insert_latency_nanos);
  if constexpr (kBounded) {
    add_histogram("sketchlink_sketch_spill_load_latency_nanos",
                  "Reload-from-spill latency (actual loads only)",
                  &SketchMetrics::spill_load_latency_nanos);
    add_histogram("sketchlink_sketch_spill_write_latency_nanos",
                  "Eviction encode+write latency",
                  &SketchMetrics::spill_write_latency_nanos);
  }
  // The gauges read lock-free state (atomic sizes, epoch-guarded walks), so
  // a scrape thread can evaluate them mid-insert without blocking anything.
  regs.push_back(registry->AddCallbackGauge(
      kBounded ? obs::MetricId("sketchlink_sketch_live_blocks",
                               "Blocks currently live in the hash table T",
                               labels)
               : obs::MetricId("sketchlink_sketch_blocks", "Blocks summarized",
                               labels),
      [this] { return static_cast<double>(num_live_blocks()); }));
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_sketch_memory_bytes",
                    "Approximate sketch memory", labels),
      [this] { return static_cast<double>(ApproximateMemoryUsage()); }));
  return regs;
}

template <Residency kResidency>
size_t ShardedSketch<kResidency>::ApproximateMemoryUsage() const {
  size_t total = sizeof(*this);
  for (const auto& stripe : stripes_) {
    total += sizeof(Stripe) + stripe->ApproximateMemoryUsage();
  }
  return total;
}

template class ShardedSketch<Residency::kUnbounded>;
template class ShardedSketch<Residency::kBounded>;

}  // namespace sketchlink
