#ifndef SKETCHLINK_LINKAGE_SKETCH_MATCHERS_H_
#define SKETCHLINK_LINKAGE_SKETCH_MATCHERS_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sharded_sketch.h"
#include "linkage/matcher.h"
#include "linkage/record_store.h"
#include "linkage/similarity.h"

namespace sketchlink {

/// Result-set semantics shared by the sketch matchers.
///
/// kSubBlock is the paper's semantics (Sec. 5): "the pairs formulated in
/// this sub-block constitute the final result set" — a query pays only the
/// lambda*rho representative comparisons and reports the chosen sub-block's
/// members directly, which is what makes the matching phase constant-time.
/// kVerified additionally compares the query against each member and keeps
/// only pairs above the similarity threshold (one comparison per member, so
/// resolution is linear in the sub-block — an extension, not the paper).
enum class ResolveMode { kSubBlock, kVerified };

/// The sketch wrapped as an OnlineMatcher: blocking routes records into
/// sub-blocks; resolution routes the query via the representatives and
/// reports its target sub-block (see ResolveMode). Duplicate candidate
/// pairs arising from redundant (LSH) blocking are discarded with a
/// per-query set, as in the paper (Sec. 7.2, footnote 17).
///
/// Backed by a striped sketch: builds shard across a thread pool and
/// queries run concurrently, with results identical to a sequential run at
/// every thread count (see DESIGN.md, Threading model). The bounded
/// (streaming) matcher keeps at most mu live blocks and serves spilled ones
/// from the key/value store; each stripe's eviction queue serializes on
/// that stripe's write mutex (queries stay lock-free, DESIGN.md §10), and
/// all stripes share the (thread-safe) spill store.
template <Residency kResidency>
class SketchMatcher : public OnlineMatcher {
 public:
  static constexpr bool kBounded = kResidency == Residency::kBounded;

  /// `store` must outlive the matcher.
  SketchMatcher(const BlockSketchOptions& options, RecordSimilarity similarity,
                RecordStore* store, ResolveMode mode = ResolveMode::kSubBlock)
    requires(!kBounded)
      : sketch_(options),
        similarity_(std::move(similarity)),
        store_(store),
        mode_(mode) {}

  /// `spill_db` and `store` must outlive the matcher.
  SketchMatcher(const SBlockSketchOptions& options, kv::Db* spill_db,
                RecordSimilarity similarity, RecordStore* store,
                ResolveMode mode = ResolveMode::kSubBlock)
    requires(kBounded)
      : sketch_(options, spill_db),
        similarity_(std::move(similarity)),
        store_(store),
        mode_(mode) {}

  Status Insert(const Record& record, const std::vector<std::string>& keys,
                const std::string& key_values) override;
  Status InsertBatch(const std::vector<PreparedRecord>& batch,
                     ThreadPool* pool) override;
  Status ResolveInto(const Record& query, const KeyScratch& keys,
                     QueryScratch* scratch) override;
  bool SupportsConcurrentResolve() const override { return true; }

  uint64_t comparisons() const override {
    return comparisons_.load(std::memory_order_relaxed) +
           sketch_.stats().representative_comparisons;
  }
  size_t ApproximateMemoryUsage() const override {
    return sketch_.ApproximateMemoryUsage();
  }
  std::string name() const override {
    return kBounded ? "SBlockSketch" : "BlockSketch";
  }

  void RegisterMetrics(obs::Registry* registry,
                       const std::string& instance) override {
    metric_registrations_ = sketch_.RegisterMetrics(registry, instance);
  }

  const ShardedSketch<kResidency>& sketch() const { return sketch_; }

 private:
  ShardedSketch<kResidency> sketch_;
  RecordSimilarity similarity_;
  RecordStore* store_;
  ResolveMode mode_;
  std::atomic<uint64_t> comparisons_{0};
  // Declared after sketch_ so deregistration (which reads the sketch) runs
  // before the sketch is torn down.
  std::vector<obs::Registration> metric_registrations_;
};

extern template class SketchMatcher<Residency::kUnbounded>;
extern template class SketchMatcher<Residency::kBounded>;

using BlockSketchMatcher = SketchMatcher<Residency::kUnbounded>;
using SBlockSketchMatcher = SketchMatcher<Residency::kBounded>;

/// Pins the candidate group of every key in `keys` into `*groups` (cleared
/// first, capacity kept), failing with the first lookup's error. The sketch
/// matchers and the service's query handler all collect their candidates
/// through it.
template <Residency kResidency>
Status CollectCandidates(ShardedSketch<kResidency>& sketch,
                         const KeyScratch& keys,
                         std::vector<CandidateList>* groups);

/// The naive matching phase the paper's methods replace: a query is compared
/// against every record of its target block(s). Used as the "linear"
/// reference point in benchmarks and tests. Resolution only reads the block
/// index, so concurrent queries are safe once the build finished.
class NaiveBlockMatcher : public OnlineMatcher {
 public:
  NaiveBlockMatcher(RecordSimilarity similarity, RecordStore* store)
      : similarity_(std::move(similarity)), store_(store) {}

  Status Insert(const Record& record, const std::vector<std::string>& keys,
                const std::string& key_values) override;
  Status ResolveInto(const Record& query, const KeyScratch& keys,
                     QueryScratch* scratch) override;
  bool SupportsConcurrentResolve() const override { return true; }

  uint64_t comparisons() const override {
    return comparisons_.load(std::memory_order_relaxed);
  }
  size_t ApproximateMemoryUsage() const override;
  std::string name() const override { return "NaiveBlockScan"; }

 private:
  RecordSimilarity similarity_;
  RecordStore* store_;
  std::unordered_map<std::string, std::vector<RecordId>> blocks_;
  std::atomic<uint64_t> comparisons_{0};
};

}  // namespace sketchlink

#endif  // SKETCHLINK_LINKAGE_SKETCH_MATCHERS_H_
