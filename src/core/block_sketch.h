#ifndef SKETCHLINK_CORE_BLOCK_SKETCH_H_
#define SKETCHLINK_CORE_BLOCK_SKETCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/epoch_hash_table.h"
#include "common/interner.h"
#include "common/random.h"
#include "common/status.h"
#include "core/published_block.h"
#include "core/sketch_metrics.h"
#include "core/sketch_types.h"

namespace sketchlink {

/// Shared routing logic: picks the target sub-block for a key and maintains
/// the representative reservoirs. Both BlockSketch and SBlockSketch (which
/// differ only in where blocks live) delegate here. Routing is stateless
/// over whatever representative snapshots the caller presents, so it works
/// identically on the classic in-place SketchBlock and on the concurrent
/// PublishedBlock; only the reservoir maintenance consumes the policy RNG.
class SketchPolicy {
 public:
  /// Telemetry of one routing decision. `comparisons` keeps the historical
  /// accounting — one per representative considered (plus the anchor) —
  /// whether or not the kernel batch pruned the actual evaluation, so the
  /// paper's "constant number of comparisons" metric is identical on every
  /// path. evaluated/pruned/batch_size describe the kernel batch itself.
  struct RouteDecision {
    size_t sub = 0;
    uint64_t comparisons = 0;
    uint64_t evaluated = 0;
    uint64_t pruned = 0;
    uint64_t batch_size = 0;
    bool batched = false;
  };

  /// The anchor fields of a block, viewed without caring which
  /// representation owns them.
  struct AnchorView {
    std::string_view anchor;
    const simd::BitProfile* bits;
  };

  /// One reservoir-maintenance decision (Algorithm 3, line 16), split from
  /// its application so the concurrent sketch can apply it copy-on-write.
  /// Planning consumes the policy RNG exactly like MaybeAddRepresentative
  /// always did: fill-to-rho draws nothing, afterwards one coin flip and —
  /// on heads — one uniform index.
  struct RepUpdate {
    enum class Kind { kNone, kAppend, kReplace };
    Kind kind = Kind::kNone;
    size_t index = 0;  // victim for kReplace
  };

  /// `distance` overrides the routing metric of options.distance_kind,
  /// whatever the kind, and routes through the scalar comparison loop; leave
  /// it empty to route by the built-in metric of options.distance_kind on the
  /// batched bit-parallel kernels (same results, differentially tested).
  SketchPolicy(const BlockSketchOptions& options, KeyDistanceFn distance);

  /// Routing rule. The distance ring of `key_values` (measured from the
  /// block's anchor) is computed first; if that ring has no representatives
  /// yet, the key seeds it — this is how the <=theta, <=2*theta, ... bands
  /// of Sec. 5 come into existence. Otherwise Algorithm 3 applies: the
  /// sub-block whose representative is nearest to `key_values` wins. Adds
  /// the number of distance computations to `*comparisons`.
  size_t ChooseSubBlock(const SketchBlock& block, std::string_view key_values,
                        uint64_t* comparisons) const;

  /// ChooseSubBlock with full telemetry: one batched kernel evaluation of
  /// the query against all lambda*rho representatives when the built-in
  /// metric is in use, the scalar loop over the custom distance otherwise.
  /// For the same metric the chosen sub-block is identical on both paths
  /// (strict-< first-minimum argmin; kernel prune bounds only skip
  /// candidates that provably cannot win).
  RouteDecision Route(const SketchBlock& block,
                      std::string_view key_values) const;

  /// Route over a published block: loads each sub's current reservoir
  /// snapshot (callers hold an epoch::ReadGuard or the write lock) and runs
  /// the identical decision procedure.
  RouteDecision Route(const PublishedBlock& block,
                      std::string_view key_values) const;

  /// The representation-independent core of Route: `subs[i]` is sub-block
  /// i's reservoir snapshot, `num_subs` == lambda.
  RouteDecision RouteView(const AnchorView& anchor,
                          const RepSet* const* subs, size_t num_subs,
                          std::string_view key_values) const;

  /// Plans one reservoir update for a sub-block currently holding
  /// `current_reps` representatives. Consumes the RNG (see RepUpdate).
  RepUpdate PlanRepUpdate(size_t current_reps) const;

  /// Applies a planned update in place (no RNG). `reps` may be a
  /// SketchSubBlock or a copy-on-write RepSet snapshot.
  void ApplyRepUpdate(RepSet* reps, const RepUpdate& update,
                      std::string_view key_values) const;

  /// Algorithm 3, line 16: coin-toss representative maintenance. Fills the
  /// reservoir up to rho unconditionally, then replaces a uniformly random
  /// representative on heads. Equivalent to PlanRepUpdate + ApplyRepUpdate.
  void MaybeAddRepresentative(RepSet* sub, std::string_view key_values) const;

  /// Seeds a fresh block from its first key: stores the anchor and, under
  /// kQGramDice on the kernel path, its bit profile.
  void SeedAnchor(SketchBlock* block, std::string_view key_values) const;
  void SeedAnchor(PublishedBlock* block, std::string_view key_values) const;

  /// Rebuilds the derived caches of a block that was just decoded from its
  /// serialized form when kernel routing is on: the bit profiles under
  /// kQGramDice and the packed SoA mirror.
  void RehydrateProfiles(SketchBlock* block) const;

  const BlockSketchOptions& options() const { return options_; }
  const KeyDistanceFn& distance() const { return distance_; }

  /// Test hook: forces the legacy gather routing path (per-candidate
  /// BatchCandidate build) even when every sub-block publishes a consistent
  /// SoA snapshot. The layout cross-check test diffs the two paths bit for
  /// bit. Process-global; affects all policies.
  static void SetGatherRoutingForTesting(bool force);

 private:
  /// True when routing takes the batched kernel path: no custom
  /// KeyDistanceFn. The packed SoA mirror is maintained under the same
  /// condition.
  bool KernelRoutingActive() const { return !distance_; }

  /// True when the kernel path scores kQGramDice, which caches one bit
  /// profile per representative (rep_bits) and per anchor (anchor_bits).
  bool CachesBitProfiles() const {
    return KernelRoutingActive() &&
           options_.distance_kind == KeyDistanceKind::kQGramDice;
  }

  /// Appends (or replaces, when `replace_index` != SIZE_MAX) the kernel
  /// cache of one representative (its bit profile, under kQGramDice).
  void UpdateKernelCaches(RepSet* sub, size_t replace_index,
                          std::string_view key_values) const;

  RouteDecision RouteWithKernels(const AnchorView& anchor,
                                 const RepSet* const* subs, size_t num_subs,
                                 std::string_view key_values) const;
  /// The scalar loop over the caller-supplied distance_.
  RouteDecision RouteScalar(const AnchorView& anchor,
                            const RepSet* const* subs, size_t num_subs,
                            std::string_view key_values) const;

  BlockSketchOptions options_;
  KeyDistanceFn distance_;
  mutable Rng rng_;
};

/// BlockSketch (paper Sec. 5): bounds the matching phase to a constant
/// number of comparisons per query by summarizing each block with lambda
/// sub-blocks of rho representatives. A query is compared against the
/// lambda*rho representatives only, then against the members of the single
/// chosen sub-block — never against the whole block (Problem Statement 2).
///
/// Concurrency: Candidates()/num_blocks()/HasBlock()/FindBlock() are
/// lock-free reads over epoch-protected published state and never block on
/// writers. Insert() serializes writers behind an internal mutex (callers
/// no longer need their own lock, but concurrent single inserts make the
/// observed order scheduling-dependent — batch per stripe for determinism).
class BlockSketch {
 public:
  /// An empty `distance` (the default) routes by the built-in metric of
  /// options.distance_kind on the batched kernel path; passing a function
  /// (DefaultKeyDistance() included) routes through the scalar loop with
  /// that exact callable, whatever the kind.
  explicit BlockSketch(const BlockSketchOptions& options = {},
                       KeyDistanceFn distance = {});

  BlockSketch(const BlockSketch&) = delete;
  BlockSketch& operator=(const BlockSketch&) = delete;

  /// Routes a record (its id + untruncated key values) into the target
  /// sub-block of `block_key`, creating the block on first contact. The key
  /// is interned once: later operations on the same key compare a 32-bit id
  /// instead of hashing the string.
  void Insert(std::string_view block_key, std::string_view key_values,
              RecordId id);

  /// Returns a pinned view of the member ids of the sub-block a query with
  /// `key_values` routes to — the constant-size candidate set of the
  /// matching phase. Lock-free: never waits on inserts. A key the sketch
  /// never saw short-circuits at the interner probe (no block-table walk).
  CandidateList Candidates(std::string_view block_key,
                           std::string_view key_values) const;

  /// Number of blocks summarized.
  size_t num_blocks() const { return blocks_.size(); }

  /// True if `block_key` has been seen.
  bool HasBlock(std::string_view block_key) const;

  /// Materialized snapshot for diagnostics/tests; nullptr when absent.
  std::shared_ptr<const SketchBlock> FindBlock(
      std::string_view block_key) const;

  /// Thin view over the live instruments (see core/sketch_metrics.h); kept
  /// by-value so historical callers keep compiling unchanged.
  BlockSketchStats stats() const { return metrics_.ToStats(); }
  const BlockSketchOptions& options() const { return policy_.options(); }

  /// Live instruments; shard owners merge these via MergeFrom.
  const BlockSketchMetrics& metrics() const { return metrics_; }

  /// Arms the per-operation latency histograms (clock reads). Thread-safe.
  void EnableLatencyTiming() {
    metrics_.timing_enabled.store(true, std::memory_order_relaxed);
  }

  size_t ApproximateMemoryUsage() const;

 private:
  SketchPolicy policy_;
  mutable BlockSketchMetrics metrics_;
  /// Maps block-key text to a dense 32-bit id. Intern on the insert path
  /// only; queries use the lock-free Find — an unseen query key never grows
  /// the interner, and its miss answers "no such block" with no further
  /// lookup.
  StringInterner interner_;
  EpochHashTable<PublishedBlock, uint32_t> blocks_;
  mutable std::mutex write_mu_;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_BLOCK_SKETCH_H_
