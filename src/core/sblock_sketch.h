#ifndef SKETCHLINK_CORE_SBLOCK_SKETCH_H_
#define SKETCHLINK_CORE_SBLOCK_SKETCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/maintenance_queue.h"
#include "core/block_sketch.h"
#include "kv/db.h"

namespace sketchlink {

/// Block replacement policies for the ablation study. The paper's policy is
/// kEvictionStatus: es = e^(w*xi - alpha); kLru / kFifo are the classic
/// baselines it is compared against in bench_ablation_eviction.
enum class EvictionPolicy { kEvictionStatus, kLru, kFifo };

/// Tuning parameters of SBlockSketch.
struct SBlockSketchOptions {
  BlockSketchOptions sketch;
  /// Maximum number of live (in-memory) blocks — the paper's mu, a function
  /// of available main memory.
  size_t mu = 10000;
  /// Weight w of a block's successes xi in its eviction status (Fig. 5 uses
  /// w = 1.5).
  double w = 1.5;
  EvictionPolicy policy = EvictionPolicy::kEvictionStatus;
};

/// SBlockSketch (paper Sec. 6): BlockSketch for unbounded streams under a
/// constant memory budget. At most mu blocks stay live in a hash table T;
/// when a new block must come in and T is full, the live block with the
/// minimum eviction status es = e^(w*xi - alpha) is serialized into the
/// key/value store (Algorithm 4). xi counts how often a block was chosen as
/// target; alpha counts the evictions it survived, so stale unselective
/// blocks decay exponentially and get replaced first.
///
/// Concurrency: queries that hit a live block are lock-free — they read the
/// epoch-protected published view and never wait on inserts, evictions, or
/// spills. Misses (and all inserts) serialize behind an internal write
/// mutex. With a MaintenanceQueue attached, eviction encode+Put runs on its
/// worker thread; the victim leaves the live table immediately but is
/// readable from the write-behind buffer until the spill lands, so probes
/// never observe a hole. A failed background spill poisons *writes* (Insert
/// fails fast with the sticky status; see WaitForMaintenance /
/// ClearMaintenanceError) while reads keep serving every block from the
/// live table, the write-behind buffer, or the store.
class SBlockSketch {
 public:
  /// `spill_db` receives evicted blocks and must outlive this object. An
  /// empty `distance` (the default) selects the built-in metric of
  /// options.distance_kind and enables the batched kernel routing path;
  /// passing a function pins the legacy scalar loop. `maintenance`, when
  /// non-null, must outlive this object and turns evictions into
  /// asynchronous write-behind spills on its worker thread.
  SBlockSketch(const SBlockSketchOptions& options, kv::Db* spill_db,
               KeyDistanceFn distance = {},
               MaintenanceQueue* maintenance = nullptr);

  /// Waits for in-flight background spills (they capture `this`).
  ~SBlockSketch();

  SBlockSketch(const SBlockSketch&) = delete;
  SBlockSketch& operator=(const SBlockSketch&) = delete;

  /// Routes one stream record into its target sub-block, faulting the block
  /// in from secondary storage (or creating it) as needed. The key is
  /// interned once; all internal bookkeeping (live table, eviction queue,
  /// write-behind buffer) is keyed by the 32-bit id.
  Status Insert(std::string_view block_key, std::string_view key_values,
                RecordId id);

  /// Candidate ids for a query — same contract as BlockSketch::Candidates,
  /// but may trigger a load/eviction, hence non-const and fallible. A query
  /// for a block key the stream never produced is a miss: it returns an
  /// empty list without admitting (or anchor-seeding) a block, so probes
  /// cannot evict live state. Queries that hit a live block are lock-free
  /// and never block on maintenance; the returned CandidateList stays valid
  /// (and immutable) even if the block is evicted afterwards. A key that
  /// was never inserted short-circuits at the interner probe: no spill-store
  /// round-trip, no admission.
  Result<CandidateList> Candidates(std::string_view block_key,
                                   std::string_view key_values);

  /// Live blocks currently in T (always <= mu). Lock-free.
  size_t num_live_blocks() const { return live_.size(); }

  /// Entries in the eviction priority queue. Bounded by the live set: an
  /// entry is pushed only at admission (never on the hit path) and popped
  /// at eviction, so a pure-hit stream cannot grow the queue. Lock-free.
  size_t eviction_queue_size() const {
    return queue_size_.load(std::memory_order_relaxed);
  }

  /// Evicted blocks parked in the write-behind buffer (queued, mid-write,
  /// or failed).
  size_t pending_spills() const;

  /// Blocks until no background spill is in flight, then returns the sticky
  /// maintenance status (OK unless some spill failed since the last
  /// ClearMaintenanceError).
  Status WaitForMaintenance();

  /// Clears the sticky background-spill failure so writes may proceed.
  /// Blocks whose spill failed are still parked in the write-behind buffer
  /// and re-admitted on their next access.
  void ClearMaintenanceError();

  /// Thin view over the live instruments (see core/sketch_metrics.h); kept
  /// by-value so historical callers keep compiling unchanged.
  SBlockSketchStats stats() const { return metrics_.ToStats(); }
  const SBlockSketchOptions& options() const { return options_; }

  /// Live instruments; shard owners merge these via MergeFrom.
  const SBlockSketchMetrics& metrics() const { return metrics_; }

  /// Arms the per-operation latency histograms (clock reads). Thread-safe.
  void EnableLatencyTiming() {
    metrics_.timing_enabled.store(true, std::memory_order_relaxed);
  }

  /// Bytes held by T (the paper's O(mu * lambda) bound) — constant in the
  /// stream length, which is the point of Problem Statement 3.
  size_t ApproximateMemoryUsage() const;

  /// Eviction score of a live block, exposed for tests: w*xi - alpha
  /// (the logarithm of the paper's es, monotone in it).
  static double EvictionScore(double w, uint64_t xi, uint64_t alpha) {
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

  struct Victim {
    StringInterner::Id key = StringInterner::kInvalidId;
    std::shared_ptr<PublishedBlock> block;
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

  /// Spill-store key of an interned block key: the exact wire bytes the
  /// string-keyed implementation produced ("blk\x01" + key text), so spill
  /// files stay compatible.
  std::string SpillKey(StringInterner::Id key_id) const {
    std::string key("blk\x01");
    key.append(interner_.View(key_id));
    return key;
  }

  /// Returns the live block for `block_key`, reclaiming it from the
  /// write-behind buffer, loading it from the spill store (and dropping the
  /// now-stale spill entry), or — only when `create_if_missing` — creating
  /// it with its anchor seeded from `key_values`; evicts first when T is
  /// full (Algorithm 4). nullptr (with OK status) means the block exists
  /// nowhere and creation was not requested. Caller holds write_mu_.
  Result<std::shared_ptr<PublishedBlock>> EnsureLiveForWrite(
      StringInterner::Id key_id, std::string_view key_values,
      bool create_if_missing, uint64_t tick);

  /// Installs `block` into the live table (evicting first when full) and
  /// resets its replacement bookkeeping, exactly as a fresh admission.
  Status Admit(StringInterner::Id key_id,
               const std::shared_ptr<PublishedBlock>& block, uint64_t tick);

  /// Removes `key_id` from the write-behind buffer, waiting out an
  /// in-flight write. nullptr when not pending (a finished spill is in the
  /// store instead).
  std::shared_ptr<PublishedBlock> TakeFromPending(StringInterner::Id key_id);

  /// Algorithm 4, lines 7-8: select the min-eviction-status victim and
  /// transfer it to secondary storage — inline, or via the maintenance
  /// thread when one is attached.
  Status EvictOne();

  /// Pops the live block with the minimum current score, lazily re-ranking
  /// entries whose block was touched since they were pushed.
  Status PopVictim(Victim* victim);

  /// Background half of an asynchronous eviction: encode + Put, then
  /// resolve the pending entry (erase on success, kFailed + sticky status
  /// on failure).
  void SpillWorker(StringInterner::Id key_id);

  /// Miss half of Candidates: everything past the lock-free live-table hit.
  Result<CandidateList> CandidatesMiss(StringInterner::Id key_id,
                                       std::string_view key_values);

  /// Read-only service under a sticky spill failure: serve from the
  /// write-behind buffer or the store without admitting anything.
  Result<CandidateList> CandidatesPoisoned(StringInterner::Id key_id,
                                           std::string_view key_values);

  /// Routes and wraps the chosen sub-block's members, with metrics.
  Result<CandidateList> RouteAndCollect(std::shared_ptr<PublishedBlock> block,
                                        std::string_view key_values);

  /// Current queue score / policy stamp of a block.
  double QueueScore(const PublishedBlock& block) const;
  uint64_t CurrentStamp(const PublishedBlock& block) const;

  /// Pushes a queue entry reflecting `block`'s current state.
  void PushQueueEntry(StringInterner::Id key_id, const PublishedBlock& block);

  SBlockSketchOptions options_;
  SketchPolicy policy_;
  kv::Db* spill_db_;
  MaintenanceQueue* maintenance_;  // nullptr => synchronous spills
  mutable SBlockSketchMetrics metrics_;

  /// Maps block-key text to a dense 32-bit id (Intern on the insert path,
  /// lock-free Find on the query path). Ids are never reused, so an evicted
  /// block keeps its id across spill round-trips.
  StringInterner interner_;

  /// The hash table T. Readers go lock-free under an epoch::ReadGuard.
  EpochHashTable<PublishedBlock, uint32_t> live_;

  /// Writer state (write_mu_): eviction queue and global eviction counter.
  mutable std::mutex write_mu_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
  uint64_t global_evictions_ = 0;

  /// Lock-free mirrors for gauges (scrape threads take no sketch lock).
  std::atomic<size_t> queue_size_{0};
  std::atomic<uint64_t> access_clock_{0};

  /// Write-behind buffer (pending_mu_; acquired after write_mu_, never
  /// before). in_flight_spills_ counts submitted spill jobs whose worker
  /// has not finished — the backpressure / drain quantity.
  mutable std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::unordered_map<StringInterner::Id, PendingSpill> pending_;
  size_t in_flight_spills_ = 0;
  Status maintenance_status_;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_SBLOCK_SKETCH_H_
