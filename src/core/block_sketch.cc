#include "core/block_sketch.h"

#include <utility>

#include "common/epoch.h"
#include "common/maintenance_queue.h"
#include "kv/db.h"
#include "obs/spans.h"

namespace sketchlink {

namespace {

// Backpressure bound on evictions handed to the maintenance thread but not
// yet durably written: an eviction waits for a free slot rather than letting
// the write-behind buffer grow without bound.
constexpr size_t kMaxPendingSpills = 8;

}  // namespace

template <Residency kResidency>
Sketch<kResidency>::Sketch(const BlockSketchOptions& options,
                           KeyDistanceFn distance)
  requires(!kBounded)
    : options_(options), policy_(options, std::move(distance)) {}

template <Residency kResidency>
Sketch<kResidency>::Sketch(const SBlockSketchOptions& options,
                           kv::Db* spill_db, KeyDistanceFn distance,
                           MaintenanceQueue* maintenance)
  requires(kBounded)
    : options_(options),
      policy_(options.sketch, std::move(distance)),
      residency_(spill_db, maintenance) {}

template <Residency kResidency>
Sketch<kResidency>::~Sketch() {
  if constexpr (kBounded) {
    // Spill jobs capture `this`; wait them out before members destruct.
    // Note kFailed blocks still parked in the buffer are dropped here —
    // callers that care check WaitForMaintenance() before teardown.
    std::unique_lock<std::mutex> pl(residency_.pending_mu);
    residency_.pending_cv.wait(
        pl, [this] { return residency_.in_flight_spills == 0; });
  }
}

template <Residency kResidency>
SketchPolicy::RouteDecision Sketch<kResidency>::Route(
    const PublishedBlock& block, std::string_view key_values) const {
  const SketchPolicy::RouteDecision decision =
      policy_.Route(block, key_values);
  metrics_.representative_comparisons.Add(decision.comparisons);
  if (decision.batched) {
    metrics_.route_batches.Inc();
    metrics_.reps_pruned.Add(decision.pruned);
    metrics_.route_batch_size.Record(decision.batch_size);
  }
  return decision;
}

template <Residency kResidency>
CandidateList Sketch<kResidency>::RouteAndCollect(
    std::shared_ptr<PublishedBlock> block, std::string_view key_values) const {
  const size_t sub = Route(*block, key_values).sub;
  CandidateList candidates(std::move(block), sub);
  metrics_.candidates_returned.Add(candidates.size());
  return candidates;
}

template <Residency kResidency>
std::shared_ptr<PublishedBlock> Sketch<kResidency>::NewBlock(
    std::string_view key_values) {
  metrics_.blocks_created.Inc();
  auto block = std::make_shared<PublishedBlock>(policy_.options().lambda);
  policy_.SeedAnchor(block.get(), key_values);
  return block;
}

template <Residency kResidency>
typename Sketch<kResidency>::InsertStatus Sketch<kResidency>::Insert(
    std::string_view block_key, std::string_view key_values, RecordId id) {
  obs::Span span("sketch", "insert");
  obs::LatencyTimer timer(SKETCHLINK_OBS_SAMPLE_HIT()
                              ? metrics_.timer(&metrics_.insert_latency_nanos)
                              : nullptr);
  metrics_.inserts.Inc();
  std::lock_guard<std::mutex> lock(write_mu_);
  std::shared_ptr<PublishedBlock> block;
  if constexpr (kBounded) {
    // A failed background spill poisons writes: admitting more data would
    // force more evictions into a failing store.
    Status poisoned = MaintenanceStatus();
    if (!poisoned.ok()) return poisoned;
    const uint64_t tick =
        residency_.access_clock.fetch_add(1, std::memory_order_relaxed) + 1;
    const StringInterner::Id key_id = interner_.Intern(block_key);
    auto live = EnsureLiveForWrite(key_id, key_values,
                                   /*create_if_missing=*/true, tick);
    if (!live.ok()) {
      span.MarkError();
      return live.status();
    }
    block = std::move(*live);
    // No queue push here: the admission-time entry stays valid, and
    // PopVictim re-ranks it lazily from the stamps. The queue is bounded by
    // the live set no matter how hot the access stream is.
    block->xi.fetch_add(1, std::memory_order_relaxed);
  } else {
    const StringInterner::Id key_id = interner_.Intern(block_key);
    // The writer probes without a guard: nothing can be retired under it.
    block = live_.Find(key_id);
    if (block == nullptr) {
      block = NewBlock(key_values);
      // Published with the anchor set but no members yet: a concurrent
      // query sees an empty (but consistent) block until this insert lands.
      live_.Insert(key_id, block);
    }
  }
  const SketchPolicy::RouteDecision decision = Route(*block, key_values);
  PublishedBlock::Sub& sub = block->sub(decision.sub);
  sub.members.Append(id);
  const RepSet* current = sub.reps.load(std::memory_order_relaxed);
  const SketchPolicy::RepUpdate update =
      policy_.PlanRepUpdate(current->representatives.size());
  if (update.kind != SketchPolicy::RepUpdate::Kind::kNone) {
    auto* fresh = new RepSet(*current);
    policy_.ApplyRepUpdate(fresh, update, key_values);
    block->PublishReps(decision.sub, fresh);
  }
  if constexpr (kBounded) return Status::OK();
}

template <Residency kResidency>
std::optional<CandidateList> Sketch<kResidency>::CandidatesLive(
    std::string_view block_key, std::string_view key_values,
    StringInterner::Id* key_id) const {
  metrics_.queries.Inc();
  // A key that was never interned was never inserted, so no live, pending,
  // or spilled copy can exist: the stream never produced this block. This
  // answers the true miss without a table walk or a store round-trip.
  *key_id = interner_.Find(block_key);
  if (*key_id == StringInterner::kInvalidId) {
    metrics_.query_misses.Inc();
    return CandidateList();
  }
  // A live hit reads the published view lock-free and never waits on
  // inserts, evictions, or spills.
  epoch::ReadGuard guard;
  std::shared_ptr<PublishedBlock> block = live_.Find(*key_id);
  if (block == nullptr) return std::nullopt;
  if constexpr (kBounded) {
    metrics_.live_hits.Inc();
    Touch(*block);
  }
  return RouteAndCollect(std::move(block), key_values);
}

template <Residency kResidency>
CandidateList Sketch<kResidency>::Candidates(std::string_view block_key,
                                             std::string_view key_values) const
  requires(!kBounded) {
  obs::Span span("sketch", "candidates");
  obs::LatencyTimer timer(SKETCHLINK_OBS_SAMPLE_HIT()
                              ? metrics_.timer(&metrics_.query_latency_nanos)
                              : nullptr);
  StringInterner::Id key_id;
  // An interned key whose block is not in the table yet is racing the
  // insert that creates it: there is nothing to compare against.
  return CandidatesLive(block_key, key_values, &key_id)
      .value_or(CandidateList());
}

template <Residency kResidency>
Result<CandidateList> Sketch<kResidency>::Candidates(
    std::string_view block_key, std::string_view key_values)
  requires(kBounded) {
  obs::Span span("sketch", "candidates");
  obs::LatencyTimer timer(SKETCHLINK_OBS_SAMPLE_HIT()
                              ? metrics_.timer(&metrics_.query_latency_nanos)
                              : nullptr);
  StringInterner::Id key_id;
  std::optional<CandidateList> live =
      CandidatesLive(block_key, key_values, &key_id);
  if (live.has_value()) return std::move(*live);
  return CandidatesMiss(key_id, key_values);
}

template <Residency kResidency>
bool Sketch<kResidency>::HasBlock(std::string_view block_key) const
  requires(!kBounded) {
  const StringInterner::Id key_id = interner_.Find(block_key);
  if (key_id == StringInterner::kInvalidId) return false;
  epoch::ReadGuard guard;
  return live_.Find(key_id) != nullptr;
}

template <Residency kResidency>
std::shared_ptr<const SketchBlock> Sketch<kResidency>::FindBlock(
    std::string_view block_key) const requires(!kBounded) {
  const StringInterner::Id key_id = interner_.Find(block_key);
  if (key_id == StringInterner::kInvalidId) return nullptr;
  epoch::ReadGuard guard;
  std::shared_ptr<PublishedBlock> block = live_.Find(key_id);
  if (block == nullptr) return nullptr;
  return std::make_shared<const SketchBlock>(block->Materialize());
}

template <Residency kResidency>
size_t Sketch<kResidency>::ApproximateMemoryUsage() const {
  epoch::ReadGuard guard;
  size_t bytes = sizeof(*this) + interner_.ApproximateMemoryUsage();
  live_.ForEach([&bytes](uint32_t /*key*/,
                         const std::shared_ptr<PublishedBlock>& block) {
    bytes += block->ApproximateMemoryUsage() +
             sizeof(void*) * 2;  // hash-table entry overhead estimate
  });
  if constexpr (kBounded) {
    bytes += residency_.queue_size.load(std::memory_order_relaxed) *
             sizeof(QueueEntry);
    std::lock_guard<std::mutex> pl(residency_.pending_mu);
    for (const auto& [key, pending] : residency_.pending) {
      bytes += sizeof(key) + pending.block->ApproximateMemoryUsage();
    }
  }
  return bytes;
}

// ---- The residency rule of the bounded sketch (Algorithm 4) ----

template <Residency kResidency>
std::string Sketch<kResidency>::SpillKey(StringInterner::Id key_id) const
  requires(kBounded) {
  std::string key("blk\x01");
  key.append(interner_.View(key_id));
  return key;
}

template <Residency kResidency>
void Sketch<kResidency>::Touch(PublishedBlock& block) const requires(kBounded) {
  const uint64_t tick =
      residency_.access_clock.fetch_add(1, std::memory_order_relaxed) + 1;
  block.last_access.store(tick, std::memory_order_relaxed);
  block.xi.fetch_add(1, std::memory_order_relaxed);
}

template <Residency kResidency>
double Sketch<kResidency>::QueueScore(const PublishedBlock& block) const
  requires(kBounded) {
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

template <Residency kResidency>
uint64_t Sketch<kResidency>::CurrentStamp(const PublishedBlock& block) const
  requires(kBounded) {
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

template <Residency kResidency>
void Sketch<kResidency>::PushQueueEntry(StringInterner::Id key_id,
                                        const PublishedBlock& block)
  requires(kBounded) {
  residency_.queue.push(QueueEntry{QueueScore(block), CurrentStamp(block),
                                   block.version, key_id});
  residency_.queue_size.fetch_add(1, std::memory_order_relaxed);
}

template <Residency kResidency>
Status Sketch<kResidency>::WriteSpill(StringInterner::Id key_id,
                                      const PublishedBlock& block)
  requires(kBounded) {
  obs::Span span("sketch", "evict");
  obs::LatencyTimer timer(metrics_.timer(&metrics_.spill_write_latency_nanos));
  std::string encoded;
  block.EncodeTo(&encoded);
  const Status put = residency_.spill_db->Put(SpillKey(key_id), encoded);
  if (!put.ok()) {
    timer.Cancel();
    span.MarkError();
  }
  return put;
}

template <Residency kResidency>
Result<std::shared_ptr<PublishedBlock>> Sketch<kResidency>::PopVictim(
    StringInterner::Id* key) requires(kBounded) {
  // Algorithm 4, line 7: poll the block with the minimum eviction status.
  // Entries of evicted incarnations are dropped; entries whose block was
  // touched since push are re-ranked lazily — unless the fresh score is
  // still the minimum, in which case the block is the victim regardless.
  auto& queue = residency_.queue;
  while (!queue.empty()) {
    const QueueEntry entry = queue.top();
    queue.pop();
    residency_.queue_size.fetch_sub(1, std::memory_order_relaxed);
    std::shared_ptr<PublishedBlock> block = live_.Find(entry.key);
    if (block == nullptr || block->version != entry.version) {
      continue;  // stale incarnation
    }
    const uint64_t stamp = CurrentStamp(*block);
    if (stamp != entry.stamp) {
      const double fresh = QueueScore(*block);
      if (!queue.empty() && queue.top().score < fresh) {
        queue.push(QueueEntry{fresh, stamp, block->version, entry.key});
        residency_.queue_size.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    *key = entry.key;
    return block;
  }
  return Status::Internal("eviction queue empty with live blocks present");
}

template <Residency kResidency>
Status Sketch<kResidency>::EvictOne() requires(kBounded) {
  StringInterner::Id key;
  auto popped = PopVictim(&key);
  if (!popped.ok()) return popped.status();
  std::shared_ptr<PublishedBlock> victim = std::move(*popped);

  if (residency_.maintenance == nullptr) {
    // Synchronous spill: Algorithm 4, line 8 on the caller's path.
    const Status put = WriteSpill(key, *victim);
    if (!put.ok()) {
      // The victim stays live; give it back its queue entry (the popped one
      // was consumed) so a later eviction can still find it.
      PushQueueEntry(key, *victim);
      return put;
    }
    live_.Erase(key);
    metrics_.evictions.Inc();
    ++residency_.global_evictions;  // survivors age (alpha = E - admit)
    return Status::OK();
  }

  // Asynchronous spill: park the victim in the write-behind buffer, retire
  // it from the live table now, and let the maintenance thread do the
  // encode + Put. Backpressure-bounded.
  {
    std::unique_lock<std::mutex> pl(residency_.pending_mu);
    residency_.pending_cv.wait(pl, [this] {
      return residency_.in_flight_spills < kMaxPendingSpills;
    });
    residency_.pending[key] = PendingSpill{victim, SpillState::kQueued};
    ++residency_.in_flight_spills;
  }
  // Pending before erase: a concurrent reader probing live -> pending -> db
  // never observes a hole.
  live_.Erase(key);
  metrics_.evictions.Inc();
  ++residency_.global_evictions;
  residency_.maintenance->Submit([this, key] { SpillWorker(key); });
  return Status::OK();
}

template <Residency kResidency>
void Sketch<kResidency>::SpillWorker(StringInterner::Id key_id)
  requires(kBounded) {
  std::shared_ptr<PublishedBlock> block;
  {
    std::lock_guard<std::mutex> pl(residency_.pending_mu);
    auto it = residency_.pending.find(key_id);
    if (it == residency_.pending.end() ||
        it->second.state != SpillState::kQueued) {
      // Cancelled: the block was re-admitted before the write started (or
      // an earlier worker job for the same key already handled the entry).
      --residency_.in_flight_spills;
      residency_.pending_cv.notify_all();
      return;
    }
    it->second.state = SpillState::kWriting;
    block = it->second.block;
  }
  // No writer can mutate the block now: it is outside the live table and
  // TakeFromPending waits while the state is kWriting.
  const Status put = WriteSpill(key_id, *block);
  {
    std::lock_guard<std::mutex> pl(residency_.pending_mu);
    auto it = residency_.pending.find(key_id);
    if (it != residency_.pending.end() &&
        it->second.state == SpillState::kWriting) {
      if (put.ok()) {
        residency_.pending.erase(it);
      } else {
        // The in-memory copy is authoritative again; nothing was lost, but
        // writes stop until the owner acknowledges the failure.
        it->second.state = SpillState::kFailed;
        if (residency_.maintenance_status.ok()) {
          residency_.maintenance_status = put;
        }
      }
    }
    --residency_.in_flight_spills;
    residency_.pending_cv.notify_all();
  }
}

template <Residency kResidency>
std::shared_ptr<PublishedBlock> Sketch<kResidency>::TakeFromPending(
    StringInterner::Id key_id) requires(kBounded) {
  std::unique_lock<std::mutex> pl(residency_.pending_mu);
  for (;;) {
    auto it = residency_.pending.find(key_id);
    if (it == residency_.pending.end()) return nullptr;
    if (it->second.state == SpillState::kWriting) {
      // Mid-flight write-behind: wait for it to land (entry gone, the store
      // has the block) or fail (kFailed, the block is ours again).
      residency_.pending_cv.wait(pl);
      continue;
    }
    // kQueued: cancel the spill (the worker finds the entry gone and
    // no-ops). kFailed: no durable copy exists; reclaim the block.
    std::shared_ptr<PublishedBlock> block = std::move(it->second.block);
    residency_.pending.erase(it);
    return block;
  }
}

template <Residency kResidency>
Status Sketch<kResidency>::Admit(StringInterner::Id key_id,
                                 const std::shared_ptr<PublishedBlock>& block,
                                 uint64_t tick) requires(kBounded) {
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
  block->admit_evictions = residency_.global_evictions;
  ++block->version;
  live_.Insert(key_id, block);
  PushQueueEntry(key_id, *block);
  return Status::OK();
}

template <Residency kResidency>
Result<std::shared_ptr<PublishedBlock>> Sketch<kResidency>::Reload(
    StringInterner::Id key_id) requires(kBounded) {
  // The timer is armed speculatively and cancelled unless a block comes
  // back, so the spill-load histogram measures actual reloads only. The
  // span covers probe + decode: a miss records a (short) probe span, which
  // is exactly the cold-path cost a trace should show.
  obs::Span span("sketch", "spill_load");
  obs::LatencyTimer timer(metrics_.timer(&metrics_.spill_load_latency_nanos));
  const auto fail = [&](Status status) {
    timer.Cancel();
    span.MarkError();
    return status;
  };
  std::string encoded;
  const Status load =
      residency_.spill_db->Get(SpillKey(key_id), &encoded);
  if (load.IsNotFound()) {
    timer.Cancel();
    return std::shared_ptr<PublishedBlock>();
  }
  if (!load.ok()) return fail(load);
  std::string_view input(encoded);
  Result<SketchBlock> decoded = SketchBlock::DecodeFrom(&input);
  if (!decoded.ok()) return fail(decoded.status());
  // Routing reads the reservoir of every ring below lambda.
  if (decoded->subs.size() != options_.sketch.lambda) {
    return fail(Status::Corruption(
        "spilled block has " + std::to_string(decoded->subs.size()) +
        " sub-blocks, lambda is " + std::to_string(options_.sketch.lambda)));
  }
  // Profile caches are derived data and not part of the spill format.
  policy_.RehydrateProfiles(&*decoded);
  timer.Stop();
  metrics_.disk_loads.Inc();
  return PublishedBlock::FromSketchBlock(std::move(*decoded));
}

template <Residency kResidency>
Result<std::shared_ptr<PublishedBlock>> Sketch<kResidency>::EnsureLiveForWrite(
    StringInterner::Id key_id, std::string_view key_values,
    bool create_if_missing, uint64_t tick) requires(kBounded) {
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
  if (block == nullptr) {
    // Line 4: resort to secondary storage.
    auto reloaded = Reload(key_id);
    if (!reloaded.ok()) return reloaded.status();
    block = std::move(*reloaded);
    if (block != nullptr) {
      SKETCHLINK_RETURN_IF_ERROR(Admit(key_id, block, tick));
      // The live copy is now authoritative; a leftover spill entry would
      // resurrect stale state on a later load. Deleting only after the
      // admission means a failure here (surfaced to the caller) cannot
      // lose the block.
      const Status drop = residency_.spill_db->Delete(SpillKey(key_id));
      if (!drop.ok() && !drop.IsNotFound()) return drop;
      return block;
    }
    if (!create_if_missing) return block;
    block = NewBlock(key_values);
  }
  SKETCHLINK_RETURN_IF_ERROR(Admit(key_id, block, tick));
  return block;
}

template <Residency kResidency>
Status Sketch<kResidency>::MaintenanceStatus() const requires(kBounded) {
  std::lock_guard<std::mutex> pl(residency_.pending_mu);
  return residency_.maintenance_status;
}

template <Residency kResidency>
Result<CandidateList> Sketch<kResidency>::CandidatesMiss(
    StringInterner::Id key_id, std::string_view key_values) requires(kBounded) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const uint64_t tick =
      residency_.access_clock.fetch_add(1, std::memory_order_relaxed) + 1;
  // An insert may have admitted the block between the lock-free probe and
  // here; EnsureLiveForWrite then finds it live. Otherwise a sticky spill
  // failure turns the miss read-only.
  if (live_.Find(key_id) == nullptr && !MaintenanceStatus().ok()) {
    return CandidatesPoisoned(key_id, key_values);
  }
  auto ensured = EnsureLiveForWrite(key_id, key_values,
                                    /*create_if_missing=*/false, tick);
  if (!ensured.ok()) return ensured.status();
  std::shared_ptr<PublishedBlock> block = std::move(*ensured);
  if (block == nullptr) {
    // The stream never produced this block: there is nothing to compare
    // against. Admitting an empty block here would evict a live one and
    // seed its anchor from the *query's* key values, skewing every later
    // sub-block choice.
    metrics_.query_misses.Inc();
    return CandidateList();
  }
  block->xi.fetch_add(1, std::memory_order_relaxed);
  return RouteAndCollect(std::move(block), key_values);
}

template <Residency kResidency>
Result<CandidateList> Sketch<kResidency>::CandidatesPoisoned(
    StringInterner::Id key_id, std::string_view key_values) requires(kBounded) {
  // Writes are refused while a spill failure is sticky, but reads keep
  // serving: the block is in the write-behind buffer or durably in the
  // store. Neither path admits (admission would evict, and evictions are
  // what is failing), so a published read snapshot is never corrupted by
  // the failure.
  std::shared_ptr<PublishedBlock> block;
  {
    std::lock_guard<std::mutex> pl(residency_.pending_mu);
    auto it = residency_.pending.find(key_id);
    if (it != residency_.pending.end()) block = it->second.block;
  }
  if (block != nullptr) {
    block->xi.fetch_add(1, std::memory_order_relaxed);
    return RouteAndCollect(std::move(block), key_values);
  }
  auto reloaded = Reload(key_id);
  if (!reloaded.ok()) return reloaded.status();
  if (*reloaded == nullptr) {
    metrics_.query_misses.Inc();
    return CandidateList();
  }
  return RouteAndCollect(std::move(*reloaded), key_values);
}

template <Residency kResidency>
size_t Sketch<kResidency>::pending_spills() const requires(kBounded) {
  std::lock_guard<std::mutex> pl(residency_.pending_mu);
  return residency_.pending.size();
}

template <Residency kResidency>
Status Sketch<kResidency>::WaitForMaintenance() requires(kBounded) {
  std::unique_lock<std::mutex> pl(residency_.pending_mu);
  residency_.pending_cv.wait(
      pl, [this] { return residency_.in_flight_spills == 0; });
  return residency_.maintenance_status;
}

template <Residency kResidency>
void Sketch<kResidency>::ClearMaintenanceError() requires(kBounded) {
  std::lock_guard<std::mutex> pl(residency_.pending_mu);
  residency_.maintenance_status = Status::OK();
}

template class Sketch<Residency::kUnbounded>;
template class Sketch<Residency::kBounded>;

}  // namespace sketchlink
