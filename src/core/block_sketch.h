#ifndef SKETCHLINK_CORE_BLOCK_SKETCH_H_
#define SKETCHLINK_CORE_BLOCK_SKETCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/epoch_hash_table.h"
#include "common/interner.h"
#include "common/random.h"
#include "common/status.h"
#include "core/published_block.h"
#include "core/sketch_metrics.h"
#include "core/sketch_types.h"

namespace sketchlink {

class MaintenanceQueue;
namespace kv {
class Db;
}  // namespace kv

/// Routing logic: picks the target sub-block for a key and maintains the
/// representative reservoirs. The sketch (bounded or not) delegates here.
/// Routing is stateless over whatever representative snapshots the caller
/// presents, so it works identically on the classic in-place SketchBlock
/// and on the concurrent PublishedBlock; only the reservoir maintenance
/// consumes the policy RNG.
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

/// Where a sketch keeps its blocks. kUnbounded keeps every block live in
/// memory: BlockSketch, the paper's Algorithm 3. kBounded keeps at most mu
/// live blocks and spills the rest to a key/value store: SBlockSketch,
/// Algorithm 4, which is Algorithm 3 plus that residency rule.
enum class Residency { kUnbounded, kBounded };

/// The sketch (paper Secs. 5 and 6): bounds the matching phase to a
/// constant number of comparisons per query by summarizing each block with
/// lambda sub-blocks of rho representatives. A query is compared against
/// the lambda*rho representatives only, then against the members of the
/// single chosen sub-block — never against the whole block (Problem
/// Statement 2).
///
/// The bounded sketch adds the residency rule of Sec. 6 for unbounded
/// streams under a constant memory budget (Problem Statement 3): at most mu
/// blocks stay live in a hash table T; when a new block must come in and T
/// is full, the live block with the minimum eviction status
/// es = e^(w*xi - alpha) is serialized into the key/value store. xi counts
/// how often a block was chosen as target; alpha counts the evictions it
/// survived, so stale unselective blocks decay exponentially and get
/// replaced first. Admission, the xi/access-clock bumps, the eviction
/// queue, write-behind spill and reload are compiled into the bounded
/// instantiation only; routing, reservoirs and metrics are one code path.
///
/// Concurrency: queries that hit a live block are lock-free — they read
/// the epoch-protected published view and never wait on inserts,
/// evictions, or spills. Inserts (and the bounded sketch's misses)
/// serialize behind an internal write mutex; concurrent single inserts make
/// the observed order scheduling-dependent, so batch per stripe for
/// determinism. With a MaintenanceQueue attached, a bounded sketch's
/// eviction encode+Put runs on its worker thread; the victim leaves the
/// live table immediately but is readable from the write-behind buffer
/// until the spill lands, so probes never observe a hole. A failed
/// background spill poisons *writes* (Insert fails fast with the sticky
/// status; see WaitForMaintenance / ClearMaintenanceError) while reads keep
/// serving every block from the live table, the write-behind buffer, or the
/// store.
template <Residency kResidency>
class Sketch {
 public:
  static constexpr bool kBounded = kResidency == Residency::kBounded;
  using Options =
      std::conditional_t<kBounded, SBlockSketchOptions, BlockSketchOptions>;
  /// Only a bounded sketch can fail an insert: its spill store can.
  using InsertStatus = std::conditional_t<kBounded, Status, void>;

  /// An unbounded sketch. An empty `distance` (the default) routes by the
  /// built-in metric of options.distance_kind on the batched kernel path;
  /// passing a function (DefaultKeyDistance() included) routes through the
  /// scalar loop with that exact callable, whatever the kind.
  explicit Sketch(const BlockSketchOptions& options = {},
                  KeyDistanceFn distance = {}) requires(!kBounded);

  /// A bounded sketch. `spill_db` receives evicted blocks and must outlive
  /// this object; `distance` as above. `maintenance`, when non-null, must
  /// outlive this object and turns evictions into asynchronous
  /// write-behind spills on its worker thread.
  Sketch(const SBlockSketchOptions& options, kv::Db* spill_db,
         KeyDistanceFn distance = {}, MaintenanceQueue* maintenance = nullptr)
    requires(kBounded);

  /// A bounded sketch first waits for its in-flight background spills
  /// (they capture `this`).
  ~Sketch();

  Sketch(const Sketch&) = delete;
  Sketch& operator=(const Sketch&) = delete;

  /// Routes a record (its id + untruncated key values) into the target
  /// sub-block of `block_key`, creating the block on first contact — or,
  /// when bounded, faulting it back in from the write-behind buffer or the
  /// spill store. The key is interned once: later operations on the same
  /// key compare a 32-bit id instead of hashing the string.
  InsertStatus Insert(std::string_view block_key, std::string_view key_values,
                      RecordId id);

  /// Returns a pinned view of the member ids of the sub-block a query with
  /// `key_values` routes to — the constant-size candidate set of the
  /// matching phase. Lock-free: never waits on inserts. A key the sketch
  /// never saw short-circuits at the interner probe (no block-table walk).
  CandidateList Candidates(std::string_view block_key,
                           std::string_view key_values) const
    requires(!kBounded);

  /// The bounded sketch's Candidates: a query whose block is spilled
  /// faults it back in (and may evict another), hence non-const and
  /// fallible. A query for a block key the stream never produced is a miss:
  /// it returns an empty list without admitting (or anchor-seeding) a
  /// block, so probes cannot evict live state. The returned CandidateList
  /// stays valid (and immutable) even if the block is evicted afterwards.
  Result<CandidateList> Candidates(std::string_view block_key,
                                   std::string_view key_values)
    requires(kBounded);

  /// Blocks in the live table T: every block when unbounded, at most mu
  /// otherwise. Lock-free.
  size_t num_live_blocks() const { return live_.size(); }

  /// Number of blocks summarized.
  size_t num_blocks() const requires(!kBounded) { return live_.size(); }

  /// True if `block_key` has been seen.
  bool HasBlock(std::string_view block_key) const requires(!kBounded);

  /// Materialized snapshot for diagnostics/tests; nullptr when absent.
  std::shared_ptr<const SketchBlock> FindBlock(std::string_view block_key) const
    requires(!kBounded);

  /// Thin view over the live instruments (see core/sketch_metrics.h).
  SketchStats stats() const { return metrics_.ToStats(); }
  const Options& options() const { return options_; }

  /// Live instruments; shard owners merge these via MergeFrom.
  const SketchMetrics& metrics() const { return metrics_; }

  /// Arms the per-operation latency histograms (clock reads). Thread-safe.
  void EnableLatencyTiming() {
    metrics_.timing_enabled.store(true, std::memory_order_relaxed);
  }

  /// Bytes held in memory. Bounded: T plus the write-behind buffer (the
  /// paper's O(mu * lambda) bound), constant in the stream length.
  size_t ApproximateMemoryUsage() const;

  /// Entries in the eviction priority queue. Bounded by the live set: an
  /// entry is pushed only at admission (never on the hit path) and popped
  /// at eviction, so a pure-hit stream cannot grow the queue. Lock-free.
  size_t eviction_queue_size() const requires(kBounded) {
    return residency_.queue_size.load(std::memory_order_relaxed);
  }

  /// Evicted blocks parked in the write-behind buffer (queued, mid-write,
  /// or failed).
  size_t pending_spills() const requires(kBounded);

  /// Blocks until no background spill is in flight, then returns the
  /// sticky maintenance status (OK unless some spill failed since the last
  /// ClearMaintenanceError).
  Status WaitForMaintenance() requires(kBounded);

  /// Clears the sticky background-spill failure so writes may proceed.
  /// Blocks whose spill failed are still parked in the write-behind buffer
  /// and re-admitted on their next access.
  void ClearMaintenanceError() requires(kBounded);

  /// Eviction score of a live block, exposed for tests: w*xi - alpha
  /// (the logarithm of the paper's es, monotone in it).
  static double EvictionScore(double w, uint64_t xi, uint64_t alpha)
    requires(kBounded) {
    return w * static_cast<double>(xi) - static_cast<double>(alpha);
  }

 private:
  // Priority-queue entry. `score` orders ascending-eviction-status; for the
  // paper's policy the aging term alpha = E - admit_evictions shifts every
  // live block equally as the global eviction counter E grows, so the ORDER
  // of eviction statuses is fully captured by w*xi + admit_evictions.
  // Entries are pushed at admission only; the hit path just bumps the
  // block's atomics. `stamp` records the policy input (xi / last_access /
  // admitted_at) at push time, so PopVictim can detect that a block was
  // touched since and lazily re-rank it — the queue stays exactly one entry
  // per live block instead of one per access. `version` invalidates entries
  // of an earlier incarnation after evict + re-admit.
  struct QueueEntry {
    double score;
    uint64_t stamp;
    uint64_t version;
    StringInterner::Id key;
    bool operator>(const QueueEntry& other) const {
      return score > other.score;
    }
  };

  /// Write-behind state of one evicted block. kQueued entries may be
  /// cancelled (re-admitted) before the worker picks them up; kWriting
  /// blocks a re-admission until the Put resolves; kFailed keeps the block
  /// in memory — it is authoritative again and nothing was lost.
  enum class SpillState { kQueued, kWriting, kFailed };
  struct PendingSpill {
    std::shared_ptr<PublishedBlock> block;
    SpillState state;
  };

  /// The residency rule's state; the unbounded sketch holds none.
  struct NoResidency {};
  struct ResidencyState {
    ResidencyState(kv::Db* db, MaintenanceQueue* queue)
        : spill_db(db), maintenance(queue) {}

    kv::Db* spill_db;
    MaintenanceQueue* maintenance;  // nullptr => synchronous spills
    /// Writer state (write_mu_): eviction queue and global eviction count.
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue;
    uint64_t global_evictions = 0;
    /// Lock-free mirrors for gauges (scrape threads take no sketch lock).
    std::atomic<size_t> queue_size{0};
    mutable std::atomic<uint64_t> access_clock{0};
    /// Write-behind buffer (pending_mu; acquired after write_mu_, never
    /// before). in_flight_spills counts submitted spill jobs whose worker
    /// has not finished — the backpressure / drain quantity.
    mutable std::mutex pending_mu;
    std::condition_variable pending_cv;
    std::unordered_map<StringInterner::Id, PendingSpill> pending;
    size_t in_flight_spills = 0;
    Status maintenance_status;
  };

  /// Routes `key_values` over `block`'s representatives and counts the
  /// decision in the metrics: the one routing step of inserts and queries.
  SketchPolicy::RouteDecision Route(const PublishedBlock& block,
                                    std::string_view key_values) const;

  /// Routes a query and pins the chosen sub-block's members.
  CandidateList RouteAndCollect(std::shared_ptr<PublishedBlock> block,
                                std::string_view key_values) const;

  /// The lock-free half of Candidates: counts the query, answers a key
  /// that was never interned with an empty list, and routes a live hit.
  /// nullopt means the key is interned but its block is not live; `*key_id`
  /// is then set.
  std::optional<CandidateList> CandidatesLive(
      std::string_view block_key, std::string_view key_values,
      StringInterner::Id* key_id) const;

  /// A new block with its anchor seeded from `key_values`. The anchor is
  /// immutable-after-publish, so it is complete before the block becomes
  /// visible.
  std::shared_ptr<PublishedBlock> NewBlock(std::string_view key_values);

  // ---- The residency rule (bounded only) ----

  /// Spill-store key of an interned block key: "blk\x01" + key text.
  std::string SpillKey(StringInterner::Id key_id) const requires(kBounded);

  /// Advances the access clock and marks `block` as just chosen (LRU input
  /// and xi, the eviction-status successes).
  void Touch(PublishedBlock& block) const requires(kBounded);

  /// Returns the live block for `key_id`, reclaiming it from the
  /// write-behind buffer, loading it from the spill store (and dropping the
  /// now-stale spill entry), or — only when `create_if_missing` — creating
  /// it with its anchor seeded from `key_values`; evicts first when T is
  /// full (Algorithm 4). nullptr (with OK status) means the block exists
  /// nowhere and creation was not requested. Caller holds write_mu_.
  Result<std::shared_ptr<PublishedBlock>> EnsureLiveForWrite(
      StringInterner::Id key_id, std::string_view key_values,
      bool create_if_missing, uint64_t tick) requires(kBounded);

  /// Installs `block` into the live table (evicting first when full) and
  /// resets its replacement bookkeeping, exactly as a fresh admission.
  Status Admit(StringInterner::Id key_id,
               const std::shared_ptr<PublishedBlock>& block, uint64_t tick)
    requires(kBounded);

  /// Reads `key_id`'s spilled block back: decodes it, checks it has lambda
  /// sub-blocks (routing indexes every ring below lambda), and rebuilds
  /// its derived caches. nullptr (with OK status) when nothing is spilled
  /// under the key; Corruption when the record is malformed.
  Result<std::shared_ptr<PublishedBlock>> Reload(StringInterner::Id key_id)
    requires(kBounded);

  /// Removes `key_id` from the write-behind buffer, waiting out an
  /// in-flight write. nullptr when not pending (a finished spill is in the
  /// store instead).
  std::shared_ptr<PublishedBlock> TakeFromPending(StringInterner::Id key_id)
    requires(kBounded);

  /// Algorithm 4, lines 7-8: select the min-eviction-status victim and
  /// transfer it to secondary storage — inline, or via the maintenance
  /// thread when one is attached.
  Status EvictOne() requires(kBounded);

  /// Pops the live block with the minimum current score, lazily re-ranking
  /// entries whose block was touched since they were pushed. Sets `*key`.
  Result<std::shared_ptr<PublishedBlock>> PopVictim(StringInterner::Id* key)
    requires(kBounded);

  /// Encodes `block` and writes it under `key_id`'s spill key: the spill
  /// of Algorithm 4, line 8, on the evicting caller or the spill worker.
  Status WriteSpill(StringInterner::Id key_id, const PublishedBlock& block)
    requires(kBounded);

  /// Background half of an asynchronous eviction: encode + Put, then
  /// resolve the pending entry (erase on success, kFailed + sticky status
  /// on failure).
  void SpillWorker(StringInterner::Id key_id) requires(kBounded);

  /// The sticky background-spill status: OK unless a spill failed since
  /// the last ClearMaintenanceError.
  Status MaintenanceStatus() const requires(kBounded);

  /// Miss half of Candidates: everything past the lock-free live-table hit.
  Result<CandidateList> CandidatesMiss(StringInterner::Id key_id,
                                       std::string_view key_values)
    requires(kBounded);

  /// Read-only service under a sticky spill failure: serve from the
  /// write-behind buffer or the store without admitting anything.
  Result<CandidateList> CandidatesPoisoned(StringInterner::Id key_id,
                                           std::string_view key_values)
    requires(kBounded);

  /// Current queue score / policy stamp of a block.
  double QueueScore(const PublishedBlock& block) const requires(kBounded);
  uint64_t CurrentStamp(const PublishedBlock& block) const requires(kBounded);

  /// Pushes a queue entry reflecting `block`'s current state.
  void PushQueueEntry(StringInterner::Id key_id, const PublishedBlock& block)
    requires(kBounded);

  Options options_;
  SketchPolicy policy_;
  mutable SketchMetrics metrics_;
  /// Maps block-key text to a dense 32-bit id. Intern on the insert path
  /// only; queries use the lock-free Find — an unseen query key never grows
  /// the interner, and its miss answers "no such block" with no further
  /// lookup. Ids are never reused, so an evicted block keeps its id across
  /// spill round-trips.
  StringInterner interner_;
  /// The hash table T. Readers go lock-free under an epoch::ReadGuard.
  EpochHashTable<PublishedBlock, uint32_t> live_;
  mutable std::mutex write_mu_;
  [[no_unique_address]] std::conditional_t<kBounded, ResidencyState,
                                           NoResidency> residency_;
};

extern template class Sketch<Residency::kUnbounded>;
extern template class Sketch<Residency::kBounded>;

/// BlockSketch (paper Sec. 5, Algorithm 3): every block stays live.
using BlockSketch = Sketch<Residency::kUnbounded>;

/// SBlockSketch (paper Sec. 6, Algorithm 4): at most mu live blocks, the
/// rest spilled to a key/value store.
using SBlockSketch = Sketch<Residency::kBounded>;

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_BLOCK_SKETCH_H_
