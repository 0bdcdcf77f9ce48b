#include "core/block_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/coding.h"
#include "common/memory_tracker.h"
#include "obs/spans.h"
#include "simd/score_batch.h"
#include "text/jaro.h"

namespace sketchlink {

KeyDistanceFn DefaultKeyDistance() {
  return [](std::string_view a, std::string_view b) {
    return text::JaroWinklerDistance(a, b);
  };
}

size_t BlockSketchOptions::rho() const {
  const double d = std::clamp(delta, 1e-9, 0.999999);
  return static_cast<size_t>(
      std::ceil(static_cast<double>(lambda) * std::log(1.0 / d)));
}

size_t SketchBlock::TotalMembers() const {
  size_t total = 0;
  for (const SketchSubBlock& sub : subs) total += sub.members.size();
  return total;
}

namespace {

/// Builds the per-sub RepSet pointer array for routing, spilling to the
/// heap only past kInlineSubs sub-blocks (lambda is small in practice).
constexpr size_t kInlineSubs = 16;

/// Test hook (see SketchPolicy::SetGatherRoutingForTesting): forces the
/// legacy AoS gather path so the layout cross-check can diff it against the
/// SoA fast path.
std::atomic<bool> g_force_gather_routing{false};

}  // namespace

void RepSet::FinalizePacked() {
  packed.text_bytes.clear();
  packed.text_offsets.clear();
  packed.text_lens.clear();
  packed.text_offsets.reserve(representatives.size());
  packed.text_lens.reserve(representatives.size());
  for (const std::string& rep : representatives) {
    packed.text_offsets.push_back(
        static_cast<uint32_t>(packed.text_bytes.size()));
    packed.text_lens.push_back(static_cast<uint32_t>(rep.size()));
    packed.text_bytes.append(rep);
  }
}

void RepSet::AppendPacked(std::string_view text) {
  packed.text_offsets.push_back(
      static_cast<uint32_t>(packed.text_bytes.size()));
  packed.text_lens.push_back(static_cast<uint32_t>(text.size()));
  packed.text_bytes.append(text);
}

size_t RepSet::ApproximateHeapBytes() const {
  size_t bytes = representatives.capacity() * sizeof(std::string);
  bytes += StringHeapBytes(packed.text_bytes);
  bytes += packed.text_offsets.capacity() * sizeof(uint32_t);
  bytes += packed.text_lens.capacity() * sizeof(uint32_t);
  for (const std::string& rep : representatives) {
    bytes += StringHeapBytes(rep);
  }
  bytes += rep_bits.capacity() * sizeof(simd::BitProfile);
  for (const simd::BitProfile& bits : rep_bits) {
    bytes += bits.HeapBytes();
  }
  return bytes;
}

size_t SketchBlock::ApproximateMemoryUsage() const {
  size_t bytes = sizeof(*this) + StringHeapBytes(anchor) +
                 subs.capacity() * sizeof(SketchSubBlock);
  bytes += anchor_bits.HeapBytes();
  for (const SketchSubBlock& sub : subs) {
    bytes += sub.ApproximateHeapBytes();
    bytes += sub.members.capacity() * sizeof(RecordId);
  }
  return bytes;
}

void SketchBlock::EncodeTo(std::string* dst) const {
  PutLengthPrefixed(dst, anchor);
  PutVarint32(dst, static_cast<uint32_t>(subs.size()));
  for (const SketchSubBlock& sub : subs) {
    PutVarint32(dst, static_cast<uint32_t>(sub.representatives.size()));
    for (const std::string& rep : sub.representatives) {
      PutLengthPrefixed(dst, rep);
    }
    PutVarint32(dst, static_cast<uint32_t>(sub.members.size()));
    for (RecordId id : sub.members) {
      PutVarint64(dst, id);
    }
  }
}

Result<SketchBlock> SketchBlock::DecodeFrom(std::string_view* input) {
  // Every sub-block, representative and member id takes at least one byte,
  // so a count above the bytes left is corrupt; checking it before sizing
  // anything keeps a bad record from reserving unbounded memory.
  const auto count_fits = [input](uint32_t count) {
    return count <= input->size();
  };
  std::string_view anchor;
  uint32_t num_subs;
  if (!GetLengthPrefixed(input, &anchor) || !GetVarint32(input, &num_subs)) {
    return Status::Corruption("truncated block header");
  }
  if (!count_fits(num_subs)) {
    return Status::Corruption("sub-block count exceeds the record");
  }
  SketchBlock block(num_subs);
  block.anchor.assign(anchor);
  for (uint32_t s = 0; s < num_subs; ++s) {
    uint32_t num_reps;
    if (!GetVarint32(input, &num_reps)) {
      return Status::Corruption("truncated sub-block reps");
    }
    if (!count_fits(num_reps)) {
      return Status::Corruption("representative count exceeds the record");
    }
    block.subs[s].representatives.reserve(num_reps);
    for (uint32_t r = 0; r < num_reps; ++r) {
      std::string_view rep;
      if (!GetLengthPrefixed(input, &rep)) {
        return Status::Corruption("truncated representative");
      }
      block.subs[s].representatives.emplace_back(rep);
    }
    uint32_t num_members;
    if (!GetVarint32(input, &num_members)) {
      return Status::Corruption("truncated sub-block members");
    }
    if (!count_fits(num_members)) {
      return Status::Corruption("member count exceeds the record");
    }
    block.subs[s].members.reserve(num_members);
    for (uint32_t m = 0; m < num_members; ++m) {
      uint64_t id;
      if (!GetVarint64(input, &id)) {
        return Status::Corruption("truncated member id");
      }
      block.subs[s].members.push_back(id);
    }
  }
  return block;
}

SketchPolicy::SketchPolicy(const BlockSketchOptions& options,
                           KeyDistanceFn distance)
    : options_(options),
      distance_(std::move(distance)),
      rng_(options.seed ^ 0x7e97e9ULL) {}

void SketchPolicy::SetGatherRoutingForTesting(bool force) {
  g_force_gather_routing.store(force, std::memory_order_relaxed);
}

void SketchPolicy::UpdateKernelCaches(RepSet* sub, size_t replace_index,
                                      std::string_view key_values) const {
  // Jaro-Winkler indexes the query side and the Myers kernel needs only
  // the strings: only the popcount Dice keeps a per-representative cache.
  if (!CachesBitProfiles()) return;
  simd::BitProfile bits = simd::MakeBitProfile(key_values, options_.qgram);
  if (replace_index == SIZE_MAX) {
    sub->rep_bits.push_back(std::move(bits));
  } else {
    sub->rep_bits[replace_index] = std::move(bits);
  }
}

namespace {

/// Anchor seeding shared by both block representations (identical member
/// names by design).
template <typename Block>
void SeedAnchorInto(Block* block, std::string_view key_values,
                    const BlockSketchOptions& options, bool with_bits) {
  block->anchor.assign(key_values);
  if (with_bits) {
    block->anchor_bits = simd::MakeBitProfile(block->anchor, options.qgram);
  }
}

}  // namespace

void SketchPolicy::SeedAnchor(SketchBlock* block,
                              std::string_view key_values) const {
  SeedAnchorInto(block, key_values, options_, CachesBitProfiles());
}

void SketchPolicy::SeedAnchor(PublishedBlock* block,
                              std::string_view key_values) const {
  SeedAnchorInto(block, key_values, options_, CachesBitProfiles());
}

void SketchPolicy::RehydrateProfiles(SketchBlock* block) const {
  if (!KernelRoutingActive()) return;
  if (CachesBitProfiles()) {
    block->anchor_bits = simd::MakeBitProfile(block->anchor, options_.qgram);
  }
  for (SketchSubBlock& sub : block->subs) {
    sub.rep_bits.clear();
    for (const std::string& rep : sub.representatives) {
      UpdateKernelCaches(&sub, SIZE_MAX, rep);
    }
    sub.FinalizePacked();
  }
}

size_t SketchPolicy::ChooseSubBlock(const SketchBlock& block,
                                    std::string_view key_values,
                                    uint64_t* comparisons) const {
  const RouteDecision decision = Route(block, key_values);
  if (comparisons != nullptr) *comparisons += decision.comparisons;
  return decision.sub;
}

SketchPolicy::RouteDecision SketchPolicy::Route(
    const SketchBlock& block, std::string_view key_values) const {
  const RepSet* inline_subs[kInlineSubs];
  std::vector<const RepSet*> heap_subs;
  const RepSet** subs = inline_subs;
  if (block.subs.size() > kInlineSubs) {
    heap_subs.resize(block.subs.size());
    subs = heap_subs.data();
  }
  for (size_t i = 0; i < block.subs.size(); ++i) subs[i] = &block.subs[i];
  const AnchorView anchor{block.anchor, &block.anchor_bits};
  return RouteView(anchor, subs, block.subs.size(), key_values);
}

SketchPolicy::RouteDecision SketchPolicy::Route(
    const PublishedBlock& block, std::string_view key_values) const {
  // One acquire load per sub pins this decision to a consistent set of
  // reservoir snapshots; concurrent re-publishes affect later routes only.
  const RepSet* inline_subs[kInlineSubs];
  std::vector<const RepSet*> heap_subs;
  const RepSet** subs = inline_subs;
  if (block.num_subs() > kInlineSubs) {
    heap_subs.resize(block.num_subs());
    subs = heap_subs.data();
  }
  for (size_t i = 0; i < block.num_subs(); ++i) {
    subs[i] = block.sub(i).reps.load(std::memory_order_acquire);
  }
  const AnchorView anchor{block.anchor, &block.anchor_bits};
  return RouteView(anchor, subs, block.num_subs(), key_values);
}

SketchPolicy::RouteDecision SketchPolicy::RouteView(
    const AnchorView& anchor, const RepSet* const* subs, size_t num_subs,
    std::string_view key_values) const {
  // The routing decision is the comparison-heavy kernel of every insert and
  // query; its span is what separates "slow route" from "slow store" in a
  // trace.
  obs::Span span("sketch", "route");
  return KernelRoutingActive()
             ? RouteWithKernels(anchor, subs, num_subs, key_values)
             : RouteScalar(anchor, subs, num_subs, key_values);
}

SketchPolicy::RouteDecision SketchPolicy::RouteScalar(
    const AnchorView& anchor, const RepSet* const* subs, size_t num_subs,
    std::string_view key_values) const {
  RouteDecision decision;
  // Distance ring of the key, measured from the block anchor (the
  // <=theta, <=2*theta, ..., <=lambda*theta bands of Sec. 5).
  const double anchor_distance = distance_(key_values, anchor.anchor);
  ++decision.comparisons;
  const double theta = std::max(options_.theta, 1e-9);
  const size_t ring = std::min(static_cast<size_t>(anchor_distance / theta),
                               options_.lambda - 1);

  // A key whose ring is still unrepresented seeds it: this is how the
  // farther sub-blocks of Fig. 4 acquire their first representative.
  if (subs[ring]->representatives.empty()) {
    decision.sub = ring;
    return decision;
  }

  // Algorithm 3: otherwise the sub-block whose representative exhibits the
  // smallest distance from the key values wins.
  size_t best = ring;
  double best_distance = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < num_subs; ++i) {
    for (const std::string& rep : subs[i]->representatives) {
      const double d = distance_(key_values, rep);
      ++decision.comparisons;
      ++decision.evaluated;
      if (d < best_distance) {
        best = i;
        best_distance = d;
      }
    }
  }
  decision.sub = best;
  return decision;
}

SketchPolicy::RouteDecision SketchPolicy::RouteWithKernels(
    const AnchorView& anchor, const RepSet* const* subs, size_t num_subs,
    std::string_view key_values) const {
  RouteDecision decision;

  simd::BatchMetric metric = simd::BatchMetric::kJaroWinkler;
  switch (options_.distance_kind) {
    case KeyDistanceKind::kJaroWinkler:
      metric = simd::BatchMetric::kJaroWinkler;
      break;
    case KeyDistanceKind::kQGramDice:
      metric = simd::BatchMetric::kQGramDice;
      break;
    case KeyDistanceKind::kLevenshtein:
      metric = simd::BatchMetric::kLevenshtein;
      break;
  }
  // Query-side preprocessing happens once per routing decision: the Jaro
  // pattern of the key values (inside BatchQuery) or their bit profile.
  simd::BitProfile query_bits;
  if (metric == simd::BatchMetric::kQGramDice) {
    query_bits = simd::MakeBitProfile(key_values, options_.qgram);
  }
  const simd::BatchQuery query =
      metric == simd::BatchMetric::kQGramDice
          ? simd::BatchQuery(metric, key_values, &query_bits)
          : simd::BatchQuery(metric, key_values);

  const simd::BatchCandidate anchor_candidate{anchor.anchor, anchor.bits};
  const double anchor_distance = query.Distance(anchor_candidate);
  ++decision.comparisons;
  const double theta = std::max(options_.theta, 1e-9);
  const size_t ring = std::min(static_cast<size_t>(anchor_distance / theta),
                               options_.lambda - 1);
  if (subs[ring]->representatives.empty()) {
    decision.sub = ring;
    return decision;
  }

  size_t total = 0;
  bool soa_ready = !g_force_gather_routing.load(std::memory_order_relaxed);
  for (size_t i = 0; i < num_subs; ++i) {
    total += subs[i]->representatives.size();
    soa_ready = soa_ready && subs[i]->PackedConsistent();
  }

  if (soa_ready) {
    // SoA fast path: each sub-block's reservoir is already published as a
    // contiguous {text run, offsets, lens} snapshot, so no gather step is
    // needed. Scoring per sub with the running best carried across subs is
    // bit-identical to one flat batch over the concatenation: bounds never
    // depend on the running best, and the (sub, rep) evaluation order is
    // unchanged — a later sub updates the argmin only on a strict
    // improvement, exactly the flat first-minimum rule.
    decision.comparisons += total;  // historical accounting: one per rep
    decision.batch_size = total;
    decision.batched = true;
    double best_distance = std::numeric_limits<double>::infinity();
    size_t best_sub = SIZE_MAX;
    for (size_t i = 0; i < num_subs; ++i) {
      const RepSet& sub = *subs[i];
      const size_t count = sub.representatives.size();
      if (count == 0) continue;
      simd::BatchSoA soa;
      soa.count = count;
      soa.text_bytes = sub.packed.text_bytes.data();
      soa.text_offsets = sub.packed.text_offsets.data();
      soa.text_lens = sub.packed.text_lens.data();
      soa.profiles =
          sub.rep_bits.size() == count ? sub.rep_bits.data() : nullptr;
      const simd::BatchResult result = query.Score(soa, best_distance);
      decision.evaluated += result.evaluated;
      decision.pruned += result.pruned;
      if (result.best_index != SIZE_MAX) {
        best_distance = result.best_distance;
        best_sub = i;
      }
    }
    decision.sub = best_sub == SIZE_MAX ? ring : best_sub;
    return decision;
  }

  // Gather path: one batch over all lambda*rho representatives, flat
  // (sub, rep) order — the exact scan order of the scalar loop, so the
  // first-minimum argmin is identical.
  constexpr size_t kInlineCandidates = 64;
  simd::BatchCandidate inline_buf[kInlineCandidates];
  std::vector<simd::BatchCandidate> heap_buf;
  simd::BatchCandidate* candidates = inline_buf;
  if (total > kInlineCandidates) {
    heap_buf.resize(total);
    candidates = heap_buf.data();
  }
  size_t k = 0;
  for (size_t i = 0; i < num_subs; ++i) {
    const RepSet& sub = *subs[i];
    const bool has_bits = sub.rep_bits.size() == sub.representatives.size();
    for (size_t r = 0; r < sub.representatives.size(); ++r) {
      candidates[k].text = sub.representatives[r];
      candidates[k].profile = has_bits ? &sub.rep_bits[r] : nullptr;
      ++k;
    }
  }

  const simd::BatchResult result = query.Score(candidates, total);
  decision.comparisons += total;  // historical accounting: one per rep
  decision.evaluated = result.evaluated;
  decision.pruned = result.pruned;
  decision.batch_size = total;
  decision.batched = true;

  decision.sub = ring;
  if (result.best_index != SIZE_MAX) {
    size_t offset = result.best_index;
    for (size_t i = 0; i < num_subs; ++i) {
      const size_t count = subs[i]->representatives.size();
      if (offset < count) {
        decision.sub = i;
        break;
      }
      offset -= count;
    }
  }
  return decision;
}

SketchPolicy::RepUpdate SketchPolicy::PlanRepUpdate(
    size_t current_reps) const {
  const size_t rho = options_.rho();
  RepUpdate update;
  if (current_reps < rho) {
    update.kind = RepUpdate::Kind::kAppend;
    return update;
  }
  if (rho == 0) return update;
  // Coin toss; on heads a uniformly random old representative is evicted
  // in favour of the new key (Sec. 5, representative replacement).
  if (rng_.CoinFlip()) {
    update.kind = RepUpdate::Kind::kReplace;
    update.index = rng_.UniformIndex(current_reps);
  }
  return update;
}

void SketchPolicy::ApplyRepUpdate(RepSet* reps, const RepUpdate& update,
                                  std::string_view key_values) const {
  switch (update.kind) {
    case RepUpdate::Kind::kNone:
      return;
    case RepUpdate::Kind::kAppend:
      reps->representatives.emplace_back(key_values);
      UpdateKernelCaches(reps, SIZE_MAX, key_values);
      if (KernelRoutingActive()) {
        if (reps->packed.text_lens.size() + 1 == reps->representatives.size()) {
          reps->AppendPacked(key_values);
        } else {
          reps->FinalizePacked();
        }
      }
      return;
    case RepUpdate::Kind::kReplace:
      reps->representatives[update.index].assign(key_values);
      UpdateKernelCaches(reps, update.index, key_values);
      if (KernelRoutingActive()) reps->FinalizePacked();
      return;
  }
}

void SketchPolicy::MaybeAddRepresentative(RepSet* sub,
                                          std::string_view key_values) const {
  ApplyRepUpdate(sub, PlanRepUpdate(sub->representatives.size()), key_values);
}

}  // namespace sketchlink
