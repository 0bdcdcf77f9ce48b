#ifndef SKETCHLINK_CORE_SKETCH_TYPES_H_
#define SKETCHLINK_CORE_SKETCH_TYPES_H_

// Plain data types of the sketch layer: options, the serializable
// SketchBlock, and the representative-set value type shared between the
// classic single-threaded representation and the concurrent published one
// (core/published_block.h).

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "record/record.h"
#include "simd/bit_profile.h"

namespace sketchlink {

/// Distance between two key-value strings (a record's untruncated blocking
/// field values, '#'-joined). The default is Jaro-Winkler distance, matching
/// the paper's evaluation (similarity threshold 0.75 => theta = 0.25).
using KeyDistanceFn =
    std::function<double(std::string_view, std::string_view)>;

/// Returns the library default distance (Jaro-Winkler distance). Passing an
/// explicit KeyDistanceFn — this one included — routes through the scalar
/// comparison loop with that function, whatever the configured
/// KeyDistanceKind; leaving the sketch's distance empty routes by the
/// built-in metric of the KeyDistanceKind on the batched bit-parallel kernel
/// path (src/simd), with identical results.
KeyDistanceFn DefaultKeyDistance();

/// Distance used for routing keys into sub-blocks.
enum class KeyDistanceKind {
  /// Jaro-Winkler distance on the raw strings (the paper's evaluation).
  kJaroWinkler,
  /// 1 - Dice coefficient over q-gram profiles. Bit profiles of
  /// representatives are computed once at insert time and cached in the
  /// sketch; a query tokenizes its own key values once per routing decision
  /// instead of once per representative comparison.
  kQGramDice,
  /// Normalized Levenshtein distance (edit distance / max length), computed
  /// with Myers' bit-parallel recurrence on the kernel path.
  kLevenshtein,
};

/// Tuning parameters of the sketch's routing and reservoirs, shared by the
/// unbounded (BlockSketch) and the bounded (SBlockSketch) sketch.
struct BlockSketchOptions {
  /// Number of sub-blocks (distance rings <=theta, <=2*theta, ...).
  size_t lambda = 3;
  /// Failure probability of Lemma 5.1; rho = ceil(lambda * ln(1/delta))
  /// representatives are kept per sub-block.
  double delta = 0.1;
  /// Ring width: the distance threshold between the keys of a matching pair.
  double theta = 0.25;
  uint64_t seed = 0x5ce7cULL;
  /// Routing distance. kQGramDice caches one bit profile per representative;
  /// the default reproduces the paper's numbers.
  KeyDistanceKind distance_kind = KeyDistanceKind::kJaroWinkler;
  /// q-gram width of the kQGramDice profiles.
  size_t qgram = 2;

  /// Representatives per sub-block (Lemma 5.1, ceiling applied).
  size_t rho() const;
};

/// Block replacement policies for the ablation study. The paper's policy is
/// kEvictionStatus: es = e^(w*xi - alpha); kLru / kFifo are the classic
/// baselines it is compared against in bench_ablation_eviction.
enum class EvictionPolicy { kEvictionStatus, kLru, kFifo };

/// Tuning parameters of the bounded sketch (SBlockSketch): the sketch's own
/// plus its residency rule.
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

/// One representative reservoir: up to rho representative key-value strings
/// plus their derived routing caches. This is the unit the concurrent
/// sketch publishes as an immutable snapshot (copy-on-write on mutation);
/// the classic in-place representation embeds it in SketchSubBlock.
struct RepSet {
  /// Structure-of-arrays mirror of `representatives`: the texts
  /// concatenated into one contiguous buffer plus parallel offset/length
  /// arrays. This is the layout simd::BatchQuery::Score streams — the
  /// length-bound kernels read `text_lens` directly and candidate bytes sit
  /// in one cache-friendly run instead of rho scattered std::string heaps.
  /// Derived data, maintained by SketchPolicy alongside the kernel caches;
  /// never serialized. Like the rest of a published RepSet snapshot it is
  /// immutable after publish (copy-on-write on mutation), so lock-free
  /// readers can borrow the raw pointers for the duration of a route.
  struct Packed {
    std::string text_bytes;
    std::vector<uint32_t> text_offsets;
    std::vector<uint32_t> text_lens;
  };

  std::vector<std::string> representatives;
  /// Kernel cache, parallel to `representatives` under kQGramDice when the
  /// batched kernel path is active (no custom KeyDistanceFn): the
  /// popcount-Dice bit profiles. Jaro-Winkler and Levenshtein need no
  /// per-representative cache (the query side carries the Jaro pattern).
  /// Derived data — never serialized; rebuilt by
  /// SketchPolicy::RehydrateProfiles after a block is decoded.
  std::vector<simd::BitProfile> rep_bits;
  Packed packed;

  /// True when `packed` mirrors `representatives` entry for entry. Routing
  /// falls back to the gather path on any inconsistent sub (e.g. a decoded
  /// block before RehydrateProfiles), so staleness degrades speed, never
  /// results.
  bool PackedConsistent() const {
    return packed.text_lens.size() == representatives.size() &&
           packed.text_offsets.size() == representatives.size();
  }

  /// Rebuilds `packed` from `representatives`.
  void FinalizePacked();

  /// Appends the newest representative's text to `packed` (amortized O(len);
  /// callers use it on the append path, FinalizePacked on replacement).
  void AppendPacked(std::string_view text);

  /// Heap bytes held by the reservoir (for memory accounting).
  size_t ApproximateHeapBytes() const;
};

/// One distance ring of a block: the representative reservoir plus the ids
/// of every record routed here.
struct SketchSubBlock : RepSet {
  std::vector<RecordId> members;
};

/// A summarized block: lambda sub-blocks keyed by the blocking key.
struct SketchBlock {
  /// Key values of the first record routed here; the origin the distance
  /// rings (<=theta, <=2*theta, ...) are measured from. The blocking key
  /// itself cannot serve: it may be truncated (standard blocking) or a bit
  /// pattern outside value space entirely (LSH blocking).
  std::string anchor;
  /// Kernel cache of `anchor` (see RepSet). Derived; not serialized.
  simd::BitProfile anchor_bits;
  std::vector<SketchSubBlock> subs;

  explicit SketchBlock(size_t lambda = 0) : subs(lambda) {}

  size_t TotalMembers() const;
  size_t ApproximateMemoryUsage() const;

  /// Binary serialization, used when the bounded sketch spills a block to
  /// the key/value store. DecodeFrom fails with Corruption on truncated
  /// input and on any count larger than the bytes left, so a bad record can
  /// neither over-read nor make it reserve unbounded memory.
  void EncodeTo(std::string* dst) const;
  static Result<SketchBlock> DecodeFrom(std::string_view* input);
};

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_SKETCH_TYPES_H_
