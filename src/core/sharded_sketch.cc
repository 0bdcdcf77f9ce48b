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

/// Buckets a batch per stripe preserving submission order within each
/// stripe — the load-bearing step of the determinism guarantee.
template <typename StripeOfFn>
std::vector<std::vector<const SketchInsert*>> BucketByStripe(
    const std::vector<SketchInsert>& entries, size_t num_stripes,
    const StripeOfFn& stripe_of) {
  std::vector<std::vector<const SketchInsert*>> buckets(num_stripes);
  for (const SketchInsert& entry : entries) {
    buckets[stripe_of(*entry.block_key)].push_back(&entry);
  }
  return buckets;
}

}  // namespace

ShardedBlockSketch::ShardedBlockSketch(const BlockSketchOptions& options,
                                       KeyDistanceFn distance,
                                       size_t num_stripes)
    : options_(options) {
  if (num_stripes == 0) num_stripes = 1;
  stripes_.reserve(num_stripes);
  for (size_t s = 0; s < num_stripes; ++s) {
    BlockSketchOptions stripe_options = options;
    stripe_options.seed = StripeSeed(options.seed, s);
    stripes_.push_back(std::make_unique<BlockSketch>(stripe_options, distance));
  }
}

size_t ShardedBlockSketch::StripeOf(std::string_view block_key) const {
  return Fnv1a64(block_key) % stripes_.size();
}

void ShardedBlockSketch::Insert(std::string_view block_key,
                                std::string_view key_values, RecordId id) {
  stripes_[StripeOf(block_key)]->Insert(block_key, key_values, id);
}

void ShardedBlockSketch::InsertBatch(const std::vector<SketchInsert>& entries,
                                     ThreadPool* pool) {
  const auto buckets = BucketByStripe(
      entries, stripes_.size(),
      [this](const std::string& key) { return StripeOf(key); });
  const auto drain = [&](size_t s) {
    BlockSketch& sketch = *stripes_[s];
    for (const SketchInsert* entry : buckets[s]) {
      sketch.Insert(*entry->block_key, *entry->key_values, entry->id);
    }
  };
  if (pool != nullptr) {
    pool->RunShards(stripes_.size(), drain);
  } else {
    for (size_t s = 0; s < stripes_.size(); ++s) drain(s);
  }
}

CandidateList ShardedBlockSketch::Candidates(
    std::string_view block_key, std::string_view key_values) const {
  return stripes_[StripeOf(block_key)]->Candidates(block_key, key_values);
}

size_t ShardedBlockSketch::num_blocks() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) total += stripe->num_blocks();
  return total;
}

void ShardedBlockSketch::MergeMetricsInto(BlockSketchMetrics* out) const {
  // Instrument reads are relaxed-atomic: a merge racing with writers yields
  // a consistent-enough cut, same contract as a registry snapshot.
  for (const auto& stripe : stripes_) {
    out->MergeFrom(stripe->metrics());
  }
}

BlockSketchStats ShardedBlockSketch::stats() const {
  BlockSketchMetrics merged;
  MergeMetricsInto(&merged);
  return merged.ToStats();
}

void ShardedBlockSketch::EnableLatencyTiming() {
  for (const auto& stripe : stripes_) stripe->EnableLatencyTiming();
}

std::vector<obs::Registration> ShardedBlockSketch::RegisterMetrics(
    obs::Registry* registry, const std::string& instance) {
  std::vector<obs::Registration> regs;
  if (registry == nullptr) return regs;
  if (registry->enabled()) EnableLatencyTiming();
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"instance", instance}, {"kind", "block"}};
  const auto add_counter = [&](const char* name, const char* help,
                               obs::Counter BlockSketchMetrics::*field) {
    regs.push_back(registry->AddCounterFn(
        obs::MetricId(name, help, labels), [this, field] {
          BlockSketchMetrics merged;
          MergeMetricsInto(&merged);
          return (merged.*field).value();
        }));
  };
  const auto add_histogram = [&](const char* name, const char* help,
                                 obs::Histogram BlockSketchMetrics::*field) {
    regs.push_back(registry->AddHistogramFn(
        obs::MetricId(name, help, labels), [this, field] {
          BlockSketchMetrics merged;
          MergeMetricsInto(&merged);
          return (merged.*field).Snapshot();
        }));
  };
  add_counter("sketchlink_sketch_inserts_total", "Records routed into the sketch",
              &BlockSketchMetrics::inserts);
  add_counter("sketchlink_sketch_queries_total", "Candidate queries served",
              &BlockSketchMetrics::queries);
  add_counter("sketchlink_sketch_representative_comparisons_total",
              "Distance computations against representatives",
              &BlockSketchMetrics::representative_comparisons);
  add_counter("sketchlink_sketch_blocks_created_total",
              "Blocks created on first contact",
              &BlockSketchMetrics::blocks_created);
  add_counter("sketchlink_sketch_candidates_returned_total",
              "Candidate ids handed to the matcher",
              &BlockSketchMetrics::candidates_returned);
  add_counter("sketchlink_sketch_route_batches_total",
              "Routing decisions taken by the batched kernel path",
              &BlockSketchMetrics::route_batches);
  add_counter("sketchlink_sketch_reps_pruned_total",
              "Representatives skipped by kernel prune bounds",
              &BlockSketchMetrics::reps_pruned);
  add_histogram("sketchlink_sketch_route_batch_size",
                "Representatives per batched routing decision",
                &BlockSketchMetrics::route_batch_size);
  add_histogram("sketchlink_sketch_query_latency_nanos",
                "Per-query sketch latency",
                &BlockSketchMetrics::query_latency_nanos);
  add_histogram("sketchlink_sketch_insert_latency_nanos",
                "Per-insert sketch latency",
                &BlockSketchMetrics::insert_latency_nanos);
  // The gauges read lock-free state (atomic sizes, epoch-guarded walks), so
  // a scrape thread can evaluate them mid-insert without blocking anything.
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_sketch_blocks", "Blocks summarized", labels),
      [this] { return static_cast<double>(num_blocks()); }));
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_sketch_memory_bytes",
                    "Approximate sketch memory", labels),
      [this] { return static_cast<double>(ApproximateMemoryUsage()); }));
  return regs;
}

size_t ShardedBlockSketch::ApproximateMemoryUsage() const {
  size_t total = sizeof(*this);
  for (const auto& stripe : stripes_) {
    total += sizeof(BlockSketch) + stripe->ApproximateMemoryUsage();
  }
  return total;
}

size_t ShardedSBlockSketch::StripeMuBudget(size_t mu, size_t num_stripes,
                                           size_t stripe) {
  if (mu == SIZE_MAX) return SIZE_MAX;
  if (num_stripes == 0) return mu;
  const size_t base = mu / num_stripes;
  const size_t budget = base + (stripe < mu % num_stripes ? 1 : 0);
  return std::max<size_t>(1, budget);
}

ShardedSBlockSketch::ShardedSBlockSketch(const SBlockSketchOptions& options,
                                         kv::Db* spill_db,
                                         KeyDistanceFn distance,
                                         size_t num_stripes)
    : options_(options) {
  if (num_stripes == 0) num_stripes = 1;
  stripes_.reserve(num_stripes);
  for (size_t s = 0; s < num_stripes; ++s) {
    SBlockSketchOptions stripe_options = options;
    stripe_options.sketch.seed = StripeSeed(options.sketch.seed, s);
    stripe_options.mu = StripeMuBudget(options.mu, num_stripes, s);
    stripes_.push_back(std::make_unique<SBlockSketch>(
        stripe_options, spill_db, distance, &maintenance_));
  }
}

size_t ShardedSBlockSketch::StripeOf(std::string_view block_key) const {
  return Fnv1a64(block_key) % stripes_.size();
}

Status ShardedSBlockSketch::Insert(std::string_view block_key,
                                   std::string_view key_values, RecordId id) {
  return stripes_[StripeOf(block_key)]->Insert(block_key, key_values, id);
}

Status ShardedSBlockSketch::InsertBatch(
    const std::vector<SketchInsert>& entries, ThreadPool* pool) {
  const auto buckets = BucketByStripe(
      entries, stripes_.size(),
      [this](const std::string& key) { return StripeOf(key); });
  std::vector<Status> results(stripes_.size());
  const auto drain = [&](size_t s) {
    SBlockSketch& sketch = *stripes_[s];
    for (const SketchInsert* entry : buckets[s]) {
      Status status =
          sketch.Insert(*entry->block_key, *entry->key_values, entry->id);
      if (!status.ok()) {
        results[s] = std::move(status);
        return;
      }
    }
  };
  if (pool != nullptr) {
    pool->RunShards(stripes_.size(), drain);
  } else {
    for (size_t s = 0; s < stripes_.size(); ++s) drain(s);
  }
  for (Status& status : results) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Result<CandidateList> ShardedSBlockSketch::Candidates(
    std::string_view block_key, std::string_view key_values) {
  return stripes_[StripeOf(block_key)]->Candidates(block_key, key_values);
}

size_t ShardedSBlockSketch::num_live_blocks() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) total += stripe->num_live_blocks();
  return total;
}

Status ShardedSBlockSketch::WaitForMaintenance() {
  Status first;
  for (const auto& stripe : stripes_) {
    Status status = stripe->WaitForMaintenance();
    if (first.ok() && !status.ok()) first = std::move(status);
  }
  return first;
}

void ShardedSBlockSketch::MergeMetricsInto(SBlockSketchMetrics* out) const {
  // Relaxed-atomic reads; no locks (see ShardedBlockSketch).
  for (const auto& stripe : stripes_) {
    out->MergeFrom(stripe->metrics());
  }
}

SBlockSketchStats ShardedSBlockSketch::stats() const {
  SBlockSketchMetrics merged;
  MergeMetricsInto(&merged);
  return merged.ToStats();
}

void ShardedSBlockSketch::EnableLatencyTiming() {
  for (const auto& stripe : stripes_) stripe->EnableLatencyTiming();
}

std::vector<obs::Registration> ShardedSBlockSketch::RegisterMetrics(
    obs::Registry* registry, const std::string& instance) {
  std::vector<obs::Registration> regs;
  if (registry == nullptr) return regs;
  if (registry->enabled()) EnableLatencyTiming();
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"instance", instance}, {"kind", "sblock"}};
  const auto add_counter = [&](const char* name, const char* help,
                               obs::Counter SBlockSketchMetrics::*field) {
    regs.push_back(registry->AddCounterFn(
        obs::MetricId(name, help, labels), [this, field] {
          SBlockSketchMetrics merged;
          MergeMetricsInto(&merged);
          return (merged.*field).value();
        }));
  };
  const auto add_histogram = [&](const char* name, const char* help,
                                 obs::Histogram SBlockSketchMetrics::*field) {
    regs.push_back(registry->AddHistogramFn(
        obs::MetricId(name, help, labels), [this, field] {
          SBlockSketchMetrics merged;
          MergeMetricsInto(&merged);
          return (merged.*field).Snapshot();
        }));
  };
  add_counter("sketchlink_sketch_inserts_total", "Records routed into the sketch",
              &SBlockSketchMetrics::inserts);
  add_counter("sketchlink_sketch_queries_total", "Candidate queries served",
              &SBlockSketchMetrics::queries);
  add_counter("sketchlink_sketch_live_hits_total",
              "Operations served from the live table",
              &SBlockSketchMetrics::live_hits);
  add_counter("sketchlink_sketch_disk_loads_total",
              "Blocks reloaded from the spill store",
              &SBlockSketchMetrics::disk_loads);
  add_counter("sketchlink_sketch_evictions_total",
              "Blocks spilled to secondary storage",
              &SBlockSketchMetrics::evictions);
  add_counter("sketchlink_sketch_query_misses_total",
              "Queries for block keys the stream never produced",
              &SBlockSketchMetrics::query_misses);
  add_counter("sketchlink_sketch_representative_comparisons_total",
              "Distance computations against representatives",
              &SBlockSketchMetrics::representative_comparisons);
  add_counter("sketchlink_sketch_candidates_returned_total",
              "Candidate ids handed to the matcher",
              &SBlockSketchMetrics::candidates_returned);
  add_counter("sketchlink_sketch_route_batches_total",
              "Routing decisions taken by the batched kernel path",
              &SBlockSketchMetrics::route_batches);
  add_counter("sketchlink_sketch_reps_pruned_total",
              "Representatives skipped by kernel prune bounds",
              &SBlockSketchMetrics::reps_pruned);
  add_histogram("sketchlink_sketch_route_batch_size",
                "Representatives per batched routing decision",
                &SBlockSketchMetrics::route_batch_size);
  add_histogram("sketchlink_sketch_query_latency_nanos",
                "Per-query sketch latency",
                &SBlockSketchMetrics::query_latency_nanos);
  add_histogram("sketchlink_sketch_insert_latency_nanos",
                "Per-insert sketch latency",
                &SBlockSketchMetrics::insert_latency_nanos);
  add_histogram("sketchlink_sketch_spill_load_latency_nanos",
                "Reload-from-spill latency (actual loads only)",
                &SBlockSketchMetrics::spill_load_latency_nanos);
  add_histogram("sketchlink_sketch_spill_write_latency_nanos",
                "Eviction encode+write latency",
                &SBlockSketchMetrics::spill_write_latency_nanos);
  // Lock-free gauges: scrape threads never block a stripe.
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_sketch_live_blocks",
                    "Blocks currently live in the hash table T", labels),
      [this] { return static_cast<double>(num_live_blocks()); }));
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_sketch_memory_bytes",
                    "Approximate sketch memory", labels),
      [this] { return static_cast<double>(ApproximateMemoryUsage()); }));
  return regs;
}

size_t ShardedSBlockSketch::ApproximateMemoryUsage() const {
  size_t total = sizeof(*this);
  for (const auto& stripe : stripes_) {
    total += sizeof(SBlockSketch) + stripe->ApproximateMemoryUsage();
  }
  return total;
}

}  // namespace sketchlink
