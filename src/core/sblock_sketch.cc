#include "core/sblock_sketch.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/epoch.h"
#include "common/memory_tracker.h"
#include "obs/spans.h"

namespace sketchlink {

namespace {

// Backpressure bound on evictions handed to the maintenance thread but not
// yet durably written: an eviction waits for a free slot rather than letting
// the write-behind buffer grow without bound.
constexpr size_t kMaxPendingSpills = 8;

}  // namespace

SBlockSketch::SBlockSketch(const SBlockSketchOptions& options,
                           kv::Db* spill_db, KeyDistanceFn distance,
                           MaintenanceQueue* maintenance)
    : options_(options),
      policy_(options.sketch, std::move(distance)),
      spill_db_(spill_db),
      maintenance_(maintenance) {}

SBlockSketch::~SBlockSketch() {
  // Spill jobs capture `this`; wait them out before members destruct. Note
  // kFailed blocks still parked in the buffer are dropped here — callers
  // that care check WaitForMaintenance() before teardown.
  std::unique_lock<std::mutex> pl(pending_mu_);
  pending_cv_.wait(pl, [this] { return in_flight_spills_ == 0; });
}

double SBlockSketch::QueueScore(const PublishedBlock& block) const {
  switch (options_.policy) {
    case EvictionPolicy::kEvictionStatus:
      // Order-equivalent to es = e^(w*xi - alpha): the aging term
      // alpha = E - admit_evictions subtracts the same global E from every
      // live block, so w*xi + admit_evictions preserves the ranking.
      return options_.w *
                 static_cast<double>(block.xi.load(std::memory_order_relaxed)) +
             static_cast<double>(block.admit_evictions);
    case EvictionPolicy::kLru:
      return static_cast<double>(
          block.last_access.load(std::memory_order_relaxed));
    case EvictionPolicy::kFifo:
      return static_cast<double>(block.admitted_at);
  }
  return 0.0;
}

uint64_t SBlockSketch::CurrentStamp(const PublishedBlock& block) const {
  switch (options_.policy) {
    case EvictionPolicy::kEvictionStatus:
      return block.xi.load(std::memory_order_relaxed);
    case EvictionPolicy::kLru:
      return block.last_access.load(std::memory_order_relaxed);
    case EvictionPolicy::kFifo:
      return block.admitted_at;
  }
  return 0;
}

void SBlockSketch::PushQueueEntry(StringInterner::Id key_id,
                                  const PublishedBlock& block) {
  queue_.push(QueueEntry{QueueScore(block), CurrentStamp(block), block.version,
                         key_id});
  queue_size_.fetch_add(1, std::memory_order_relaxed);
}

Status SBlockSketch::PopVictim(Victim* victim) {
  // Algorithm 4, line 7: poll the block with the minimum eviction status.
  // Entries of evicted incarnations are dropped; entries whose block was
  // touched since push are re-ranked lazily — unless the fresh score is
  // still the minimum, in which case the block is the victim regardless.
  while (!queue_.empty()) {
    QueueEntry entry = queue_.top();
    queue_.pop();
    queue_size_.fetch_sub(1, std::memory_order_relaxed);
    std::shared_ptr<PublishedBlock> block = live_.Find(entry.key);
    if (block == nullptr || block->version != entry.version) {
      continue;  // stale incarnation
    }
    const uint64_t stamp = CurrentStamp(*block);
    if (stamp != entry.stamp) {
      const double fresh = QueueScore(*block);
      if (!queue_.empty() && queue_.top().score < fresh) {
        queue_.push(QueueEntry{fresh, stamp, block->version, entry.key});
        queue_size_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    victim->key = entry.key;
    victim->block = std::move(block);
    return Status::OK();
  }
  return Status::Internal("eviction queue empty with live blocks present");
}

Status SBlockSketch::EvictOne() {
  Victim victim;
  SKETCHLINK_RETURN_IF_ERROR(PopVictim(&victim));

  if (maintenance_ == nullptr) {
    // Synchronous spill: Algorithm 4, line 8 on the caller's path.
    obs::Span span("sketch", "evict");
    obs::LatencyTimer timer(metrics_.timing_enabled.load(
                                std::memory_order_relaxed)
                                ? &metrics_.spill_write_latency_nanos
                                : nullptr);
    std::string encoded;
    victim.block->EncodeTo(&encoded);
    const Status put = spill_db_->Put(SpillKey(victim.key), encoded);
    if (!put.ok()) {
      span.MarkError();
      // The victim stays live; give it back its queue entry (the popped one
      // was consumed) so a later eviction can still find it.
      PushQueueEntry(victim.key, *victim.block);
      return put;
    }
    timer.Stop();
    live_.Erase(victim.key);
    metrics_.evictions.Inc();
    ++global_evictions_;  // survivors age implicitly (alpha = E - admit)
    return Status::OK();
  }

  // Asynchronous spill: park the victim in the write-behind buffer, retire
  // it from the live table now, and let the maintenance thread do the
  // encode + Put. Backpressure-bounded.
  {
    std::unique_lock<std::mutex> pl(pending_mu_);
    pending_cv_.wait(pl, [this] {
      return in_flight_spills_ < kMaxPendingSpills;
    });
    pending_[victim.key] = PendingSpill{victim.block, SpillState::kQueued};
    ++in_flight_spills_;
  }
  // Pending before erase: a concurrent reader probing live -> pending -> db
  // never observes a hole.
  live_.Erase(victim.key);
  metrics_.evictions.Inc();
  ++global_evictions_;
  maintenance_->Submit(
      [this, key = victim.key] { SpillWorker(key); });
  return Status::OK();
}

void SBlockSketch::SpillWorker(StringInterner::Id key_id) {
  std::shared_ptr<PublishedBlock> block;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    auto it = pending_.find(key_id);
    if (it == pending_.end() || it->second.state != SpillState::kQueued) {
      // Cancelled: the block was re-admitted before the write started (or
      // an earlier worker job for the same key already handled the entry).
      --in_flight_spills_;
      pending_cv_.notify_all();
      return;
    }
    it->second.state = SpillState::kWriting;
    block = it->second.block;
  }
  // No writer can mutate the block now: it is outside the live table and
  // TakeFromPending waits while the state is kWriting.
  obs::Span span("sketch", "evict");
  obs::LatencyTimer timer(
      metrics_.timing_enabled.load(std::memory_order_relaxed)
          ? &metrics_.spill_write_latency_nanos
          : nullptr);
  std::string encoded;
  block->EncodeTo(&encoded);
  const Status put = spill_db_->Put(SpillKey(key_id), encoded);
  if (put.ok()) {
    timer.Stop();
  } else {
    timer.Cancel();
    span.MarkError();
  }
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    auto it = pending_.find(key_id);
    if (it != pending_.end() && it->second.state == SpillState::kWriting) {
      if (put.ok()) {
        pending_.erase(it);
      } else {
        // The in-memory copy is authoritative again; nothing was lost, but
        // writes stop until the owner acknowledges the failure.
        it->second.state = SpillState::kFailed;
        if (maintenance_status_.ok()) maintenance_status_ = put;
      }
    }
    --in_flight_spills_;
    pending_cv_.notify_all();
  }
}

std::shared_ptr<PublishedBlock> SBlockSketch::TakeFromPending(
    StringInterner::Id key_id) {
  std::unique_lock<std::mutex> pl(pending_mu_);
  for (;;) {
    auto it = pending_.find(key_id);
    if (it == pending_.end()) return nullptr;
    if (it->second.state == SpillState::kWriting) {
      // Mid-flight write-behind: wait for it to land (entry gone, the store
      // has the block) or fail (kFailed, the block is ours again).
      pending_cv_.wait(pl);
      continue;
    }
    // kQueued: cancel the spill (the worker finds the entry gone and
    // no-ops). kFailed: no durable copy exists; reclaim the block.
    std::shared_ptr<PublishedBlock> block = std::move(it->second.block);
    pending_.erase(it);
    return block;
  }
}

Status SBlockSketch::Admit(StringInterner::Id key_id,
                           const std::shared_ptr<PublishedBlock>& block,
                           uint64_t tick) {
  // Algorithm 4, lines 6-10: make room when T is full.
  if (live_.size() >= options_.mu) {
    SKETCHLINK_RETURN_IF_ERROR(EvictOne());
  }
  // Fresh replacement bookkeeping, identical whether the block arrived from
  // the write-behind buffer, the store, or creation — so async and sync
  // spill timing converge to the same routing state.
  block->xi.store(0, std::memory_order_relaxed);
  block->last_access.store(tick, std::memory_order_relaxed);
  block->admitted_at = tick;
  block->admit_evictions = global_evictions_;
  ++block->version;
  live_.Insert(key_id, block);
  PushQueueEntry(key_id, *block);
  return Status::OK();
}

Result<std::shared_ptr<PublishedBlock>> SBlockSketch::EnsureLiveForWrite(
    StringInterner::Id key_id, std::string_view key_values,
    bool create_if_missing, uint64_t tick) {
  // Algorithm 4, line 2: try the hash table T first. The writer probes
  // without a guard — it is the only thread that retires entries.
  std::shared_ptr<PublishedBlock> block = live_.Find(key_id);
  if (block != nullptr) {
    metrics_.live_hits.Inc();
    block->last_access.store(tick, std::memory_order_relaxed);
    return block;
  }

  // An evicted block whose spill has not landed yet is reclaimed from the
  // write-behind buffer — same content a store round-trip would produce,
  // minus the I/O.
  block = TakeFromPending(key_id);
  if (block != nullptr) {
    SKETCHLINK_RETURN_IF_ERROR(Admit(key_id, block, tick));
    return block;
  }

  // Line 4: resort to secondary storage. The timer is armed speculatively
  // and cancelled when the probe turns out to be a miss, so the spill-load
  // histogram measures actual reloads only. The span covers probe + decode:
  // a miss records a (short) probe span, which is exactly the cold-path
  // cost a trace should show.
  std::string encoded;
  obs::Span span("sketch", "spill_load");
  obs::LatencyTimer load_timer(
      metrics_.timing_enabled.load(std::memory_order_relaxed)
          ? &metrics_.spill_load_latency_nanos
          : nullptr);
  const Status load = spill_db_->Get(SpillKey(key_id), &encoded);
  if (load.ok()) {
    std::string_view input(encoded);
    auto decoded = SketchBlock::DecodeFrom(&input);
    if (!decoded.ok()) {
      span.MarkError();
      return decoded.status();
    }
    // Profile caches are derived data and not part of the spill format.
    policy_.RehydrateProfiles(&*decoded);
    load_timer.Stop();
    metrics_.disk_loads.Inc();
    block = PublishedBlock::FromSketchBlock(std::move(*decoded));
    SKETCHLINK_RETURN_IF_ERROR(Admit(key_id, block, tick));
    // The live copy is now authoritative; a leftover spill entry would
    // resurrect stale state on a later load. Deleting only after the
    // admission means a failure here (surfaced to the caller) cannot lose
    // the block.
    const Status drop = spill_db_->Delete(SpillKey(key_id));
    if (!drop.ok() && !drop.IsNotFound()) return drop;
    return block;
  }
  load_timer.Cancel();
  if (!load.IsNotFound()) {
    span.MarkError();
    return load;
  }
  if (!create_if_missing) return std::shared_ptr<PublishedBlock>(nullptr);
  block = std::make_shared<PublishedBlock>(options_.sketch.lambda);
  // The anchor must be complete before the block becomes visible: it is
  // immutable-after-publish.
  policy_.SeedAnchor(block.get(), key_values);
  SKETCHLINK_RETURN_IF_ERROR(Admit(key_id, block, tick));
  return block;
}

Status SBlockSketch::Insert(std::string_view block_key,
                            std::string_view key_values, RecordId id) {
  obs::Span span("sketch", "insert");
  obs::LatencyTimer timer(
      SKETCHLINK_OBS_SAMPLE_HIT() ? metrics_.insert_timer() : nullptr);
  metrics_.inserts.Inc();
  std::lock_guard<std::mutex> lock(write_mu_);
  {
    // A failed background spill poisons writes: admitting more data would
    // force more evictions into a failing store.
    std::lock_guard<std::mutex> pl(pending_mu_);
    if (!maintenance_status_.ok()) return maintenance_status_;
  }
  const uint64_t tick =
      access_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  const StringInterner::Id key_id = interner_.Intern(block_key);
  auto live = EnsureLiveForWrite(key_id, key_values,
                                 /*create_if_missing=*/true, tick);
  if (!live.ok()) {
    span.MarkError();
    return live.status();
  }
  std::shared_ptr<PublishedBlock> block = *live;
  block->xi.fetch_add(1, std::memory_order_relaxed);
  // No queue push here: the admission-time entry stays valid, and PopVictim
  // re-ranks it lazily from the stamps. The queue is bounded by the live
  // set no matter how hot the access stream is.
  const SketchPolicy::RouteDecision decision =
      policy_.Route(*block, key_values);
  metrics_.representative_comparisons.Add(decision.comparisons);
  if (decision.batched) {
    metrics_.route_batches.Inc();
    metrics_.reps_pruned.Add(decision.pruned);
    metrics_.route_batch_size.Record(decision.batch_size);
  }
  block->sub(decision.sub).members.Append(id);
  const RepSet* current =
      block->sub(decision.sub).reps.load(std::memory_order_relaxed);
  const SketchPolicy::RepUpdate update =
      policy_.PlanRepUpdate(current->representatives.size());
  if (update.kind != SketchPolicy::RepUpdate::Kind::kNone) {
    auto* fresh = new RepSet(*current);
    policy_.ApplyRepUpdate(fresh, update, key_values);
    block->PublishReps(decision.sub, fresh);
  }
  return Status::OK();
}

Result<CandidateList> SBlockSketch::RouteAndCollect(
    std::shared_ptr<PublishedBlock> block, std::string_view key_values) {
  const SketchPolicy::RouteDecision decision =
      policy_.Route(*block, key_values);
  metrics_.representative_comparisons.Add(decision.comparisons);
  if (decision.batched) {
    metrics_.route_batches.Inc();
    metrics_.reps_pruned.Add(decision.pruned);
    metrics_.route_batch_size.Record(decision.batch_size);
  }
  CandidateList candidates(std::move(block), decision.sub);
  metrics_.candidates_returned.Add(candidates.size());
  return candidates;
}

Result<CandidateList> SBlockSketch::Candidates(std::string_view block_key,
                                               std::string_view key_values) {
  obs::Span span("sketch", "candidates");
  obs::LatencyTimer timer(
      SKETCHLINK_OBS_SAMPLE_HIT() ? metrics_.query_timer() : nullptr);
  metrics_.queries.Inc();
  // A key that was never interned was never inserted, so no live, pending,
  // or spilled copy can exist: the stream never produced this block. This
  // answers the true miss without a store round-trip.
  const StringInterner::Id key_id = interner_.Find(block_key);
  if (key_id == StringInterner::kInvalidId) {
    metrics_.query_misses.Inc();
    return CandidateList();
  }
  {
    // Fast path: a live hit reads the published view lock-free and never
    // waits on inserts, evictions, or spills.
    epoch::ReadGuard guard;
    std::shared_ptr<PublishedBlock> block = live_.Find(key_id);
    if (block != nullptr) {
      metrics_.live_hits.Inc();
      const uint64_t tick =
          access_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
      block->last_access.store(tick, std::memory_order_relaxed);
      block->xi.fetch_add(1, std::memory_order_relaxed);
      return RouteAndCollect(std::move(block), key_values);
    }
  }
  return CandidatesMiss(key_id, key_values);
}

Result<CandidateList> SBlockSketch::CandidatesMiss(
    StringInterner::Id key_id, std::string_view key_values) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const uint64_t tick =
      access_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  // An insert may have admitted the block between the lock-free probe and
  // here.
  std::shared_ptr<PublishedBlock> block = live_.Find(key_id);
  if (block != nullptr) {
    metrics_.live_hits.Inc();
    block->last_access.store(tick, std::memory_order_relaxed);
  } else {
    bool poisoned;
    {
      std::lock_guard<std::mutex> pl(pending_mu_);
      poisoned = !maintenance_status_.ok();
    }
    if (poisoned) return CandidatesPoisoned(key_id, key_values);
    auto ensured = EnsureLiveForWrite(key_id, key_values,
                                      /*create_if_missing=*/false, tick);
    if (!ensured.ok()) return ensured.status();
    block = *ensured;
    if (block == nullptr) {
      // The stream never produced this block: there is nothing to compare
      // against. Admitting an empty block here would evict a live one and
      // seed its anchor from the *query's* key values, skewing every later
      // sub-block choice.
      metrics_.query_misses.Inc();
      return CandidateList();
    }
  }
  block->xi.fetch_add(1, std::memory_order_relaxed);
  return RouteAndCollect(std::move(block), key_values);
}

Result<CandidateList> SBlockSketch::CandidatesPoisoned(
    StringInterner::Id key_id, std::string_view key_values) {
  // Writes are refused while a spill failure is sticky, but reads keep
  // serving: the block is in the write-behind buffer or durably in the
  // store. Neither path admits (admission would evict, and evictions are
  // what is failing), so a published read snapshot is never corrupted by
  // the failure.
  std::shared_ptr<PublishedBlock> block;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    auto it = pending_.find(key_id);
    if (it != pending_.end()) block = it->second.block;
  }
  if (block != nullptr) {
    block->xi.fetch_add(1, std::memory_order_relaxed);
    return RouteAndCollect(std::move(block), key_values);
  }
  std::string encoded;
  const Status load = spill_db_->Get(SpillKey(key_id), &encoded);
  if (load.IsNotFound()) {
    metrics_.query_misses.Inc();
    return CandidateList();
  }
  SKETCHLINK_RETURN_IF_ERROR(load);
  std::string_view input(encoded);
  auto decoded = SketchBlock::DecodeFrom(&input);
  if (!decoded.ok()) return decoded.status();
  policy_.RehydrateProfiles(&*decoded);
  metrics_.disk_loads.Inc();
  return RouteAndCollect(PublishedBlock::FromSketchBlock(std::move(*decoded)),
                         key_values);
}

size_t SBlockSketch::pending_spills() const {
  std::lock_guard<std::mutex> pl(pending_mu_);
  return pending_.size();
}

Status SBlockSketch::WaitForMaintenance() {
  std::unique_lock<std::mutex> pl(pending_mu_);
  pending_cv_.wait(pl, [this] { return in_flight_spills_ == 0; });
  return maintenance_status_;
}

void SBlockSketch::ClearMaintenanceError() {
  std::lock_guard<std::mutex> pl(pending_mu_);
  maintenance_status_ = Status::OK();
}

size_t SBlockSketch::ApproximateMemoryUsage() const {
  epoch::ReadGuard guard;
  size_t bytes = sizeof(*this) +
                 queue_size_.load(std::memory_order_relaxed) *
                     sizeof(QueueEntry) +
                 interner_.ApproximateMemoryUsage();
  live_.ForEach([&bytes](uint32_t /*key*/,
                         const std::shared_ptr<PublishedBlock>& block) {
    bytes += block->ApproximateMemoryUsage() + sizeof(void*) * 2;
  });
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    for (const auto& [key, pending] : pending_) {
      bytes += sizeof(key) + pending.block->ApproximateMemoryUsage();
    }
  }
  return bytes;
}

}  // namespace sketchlink
