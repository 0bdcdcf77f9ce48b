#ifndef SKETCHLINK_CORE_SHARDED_SKETCH_H_
#define SKETCHLINK_CORE_SHARDED_SKETCH_H_

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/maintenance_queue.h"
#include "common/thread_pool.h"
#include "core/block_sketch.h"
#include "core/sblock_sketch.h"
#include "obs/registry.h"

namespace sketchlink {

/// One record routed into a sketch: pointers into caller-owned storage that
/// must stay valid for the duration of an InsertBatch call.
struct SketchInsert {
  const std::string* block_key;
  const std::string* key_values;
  RecordId id;
};

/// Striped wrapper for concurrent use: the blocking key hashes to one of
/// `num_stripes` independent sub-sketches. The sketches are internally
/// synchronized (lock-free epoch-protected reads, a per-sketch write mutex),
/// so this layer adds no locks of its own: queries on any stripe never wait,
/// and writers contend only within a stripe.
///
/// Determinism: stripe selection depends only on the key and the (fixed)
/// stripe count — never on the thread count. InsertBatch buckets its input
/// per stripe in submission order before fanning out, and each stripe is
/// drained by exactly one task, so every sub-sketch observes the same insert
/// sequence (and therefore makes the same coin-flip decisions) whether the
/// batch runs on 1 thread or 16. Results are bit-identical for any pool
/// size; only wall-clock changes.
///
/// Bounded: the memory budget mu is split exactly across stripes (each
/// stripe evicts independently once its share is full; see StripeMuBudget);
/// all stripes share the caller's spill store, which must itself be
/// thread-safe (kv::Db is). Keys never cross stripes, so spilled blocks
/// cannot collide. The wrapper owns one maintenance thread shared by all
/// stripes: eviction encode+spill runs there, off every caller's path.
template <Residency kResidency>
class ShardedSketch {
 public:
  using Stripe = Sketch<kResidency>;
  static constexpr bool kBounded = Stripe::kBounded;
  using Options = typename Stripe::Options;
  using InsertStatus = typename Stripe::InsertStatus;
  static constexpr size_t kDefaultStripes = 16;

  /// An empty `distance` (the default) selects the built-in metric of
  /// options.distance_kind and enables the batched kernel routing path in
  /// every stripe; passing a function pins the legacy scalar loop.
  explicit ShardedSketch(const BlockSketchOptions& options = {},
                         KeyDistanceFn distance = {},
                         size_t num_stripes = kDefaultStripes)
    requires(!kBounded);
  ShardedSketch(const SBlockSketchOptions& options, kv::Db* spill_db,
                KeyDistanceFn distance = {},
                size_t num_stripes = kDefaultStripes) requires(kBounded);

  ShardedSketch(const ShardedSketch&) = delete;
  ShardedSketch& operator=(const ShardedSketch&) = delete;

  /// Single insert; serialized within the key's stripe. Safe to call
  /// concurrently, but concurrent single inserts make the per-stripe order
  /// scheduling-dependent — use InsertBatch for reproducible parallel
  /// builds.
  InsertStatus Insert(std::string_view block_key, std::string_view key_values,
                      RecordId id);

  /// Deterministic parallel build: buckets `entries` per stripe in order,
  /// then runs one task per stripe on `pool` (sequentially when pool is
  /// null). Bounded: returns the first per-stripe error in stripe order
  /// (all stripes still run to completion).
  InsertStatus InsertBatch(const std::vector<SketchInsert>& entries,
                           ThreadPool* pool);

  /// Lock-free candidate lookup (never waits on writers of any stripe).
  CandidateList Candidates(std::string_view block_key,
                           std::string_view key_values) const
    requires(!kBounded) {
    return stripes_[StripeOf(block_key)]->Candidates(block_key, key_values);
  }

  /// Lock-free when the block is live in its stripe; a miss may fault the
  /// block in from the spill store and evict another within that stripe
  /// only.
  Result<CandidateList> Candidates(std::string_view block_key,
                                   std::string_view key_values)
    requires(kBounded) {
    return stripes_[StripeOf(block_key)]->Candidates(block_key, key_values);
  }

  size_t num_live_blocks() const;
  size_t num_blocks() const requires(!kBounded) { return num_live_blocks(); }
  size_t num_stripes() const { return stripes_.size(); }

  /// Blocks until no background spill is in flight in any stripe, then
  /// returns the first sticky failure in stripe order (OK when clean).
  Status WaitForMaintenance() requires(kBounded);

  /// Aggregated counters across stripes (by value: a consistent-enough
  /// snapshot for statistics, not a linearizable cut). Produced by merging
  /// the per-stripe instruments — see MergeMetricsInto.
  SketchStats stats() const;

  /// Merges every stripe's live instruments into `*out`: counters add,
  /// histograms merge bucket-wise (an exact re-bucketing of the union of
  /// samples — percentiles are extracted from the merged buckets, never
  /// averaged across shards). Reads are relaxed-atomic; no locks.
  void MergeMetricsInto(SketchMetrics* out) const;

  /// Arms per-operation latency timing in every stripe.
  void EnableLatencyTiming();

  /// Registers the merged instruments (plus block-count and memory gauges)
  /// under `instance` and kind "block" (unbounded) or "sblock" (bounded;
  /// only it exports the residency families), and enables latency timing
  /// when `registry` is enabled. The returned handles must be dropped
  /// before this sketch; they hold closures reading it.
  std::vector<obs::Registration> RegisterMetrics(obs::Registry* registry,
                                                 const std::string& instance);

  const Options& options() const { return options_; }

  size_t ApproximateMemoryUsage() const;

  /// Live-block budget of stripe `stripe`: mu/n everywhere plus one for the
  /// first mu%n stripes, so the budgets sum to exactly mu (never over).
  /// Degenerate cases: SIZE_MAX (unbounded) passes through; when mu <
  /// num_stripes some stripes get the floor of 1 live block — the aggregate
  /// may then exceed mu, which is unavoidable with independent stripes and
  /// documented rather than hidden.
  static size_t StripeMuBudget(size_t mu, size_t num_stripes, size_t stripe)
    requires(kBounded);

 private:
  struct NoMaintenance {};

  size_t StripeOf(std::string_view block_key) const;

  Options options_;
  /// Declared before stripes_ so it outlives them: stripe destructors wait
  /// out their in-flight spill jobs, which run on this thread.
  [[no_unique_address]] std::conditional_t<kBounded, MaintenanceQueue,
                                           NoMaintenance> maintenance_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

extern template class ShardedSketch<Residency::kUnbounded>;
extern template class ShardedSketch<Residency::kBounded>;

using ShardedBlockSketch = ShardedSketch<Residency::kUnbounded>;
using ShardedSBlockSketch = ShardedSketch<Residency::kBounded>;

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_SHARDED_SKETCH_H_
