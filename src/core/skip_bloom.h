#ifndef SKETCHLINK_CORE_SKIP_BLOOM_H_
#define SKETCHLINK_CORE_SKIP_BLOOM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/annotated_bloom_filter.h"
#include "common/counter.h"
#include "common/random.h"
#include "skiplist/skip_list.h"

namespace sketchlink {

/// Tuning parameters of a SkipBloom synopsis.
struct SkipBloomOptions {
  /// Expected number of blocking keys n; the Bernoulli sampling probability
  /// is n^-1/2 and each Bloom filter is sized for sqrt(n)/m keys.
  uint64_t expected_keys = 1'000'000;
  /// Number m of Bloom filters per block, in expectation (paper uses m = 5).
  size_t filters_per_block = 5;
  /// False-positive probability of each Bloom filter (paper uses 0.05).
  double bloom_fp = 0.05;
  /// Short-circuit inserts of keys the synopsis already reports present.
  /// Keeps the skip-list sample ~uniform over DISTINCT keys (what the
  /// Monte-Carlo overlap estimator wants) instead of frequency-weighted,
  /// at the cost of one membership probe per insert and of dropping the
  /// occasional novel key that collides with a Bloom false positive
  /// (membership answers stay correct either way). The paper's variant
  /// (footnote 5) re-inserts duplicates; set false to reproduce it.
  bool dedup_inserts = true;
  uint64_t seed = 0xb10cULL;
};

/// Usage counters exposed for the experiments. RelaxedCounter fields make
/// the const Query path (which bumps queries/filter_probes through the
/// mutable stats) race-free under concurrent readers.
struct SkipBloomStats {
  RelaxedCounter inserts = 0;
  RelaxedCounter sampled_keys = 0;   // keys promoted to the skip list
  RelaxedCounter duplicate_skips = 0;  // inserts short-circuited by membership
  RelaxedCounter queries = 0;
  RelaxedCounter filter_probes = 0;  // Bloom filters touched across all queries
};

/// SkipBloom (paper Sec. 4): a synopsis of the universe of blocking keys.
///
/// A Bernoulli sample (p = n^-1/2) of the key stream is promoted into a skip
/// list; every other key is absorbed by a small Bloom filter chained under
/// the nearest sampled key to its left. Each filter is annotated with the
/// min/max keys it holds so that (a) queries skip filters that cannot
/// contain the key, and (b) a newly sampled key can take shared references
/// to its predecessor's filters whose range overlaps the new block (Fig. 2),
/// keeping the blocking mechanism consistent without moving data.
///
/// Memory is O(sqrt(n) * (2 + m)); insert is O(log sqrt(n) + m) and query
/// O(log sqrt(n) + m) expected (plus referenced-filter scans), which is the
/// sublinear profile Problem Statement 1 requires.
class SkipBloom {
 public:
  explicit SkipBloom(const SkipBloomOptions& options = SkipBloomOptions());

  SkipBloom(const SkipBloom&) = delete;
  SkipBloom& operator=(const SkipBloom&) = delete;

  /// Inserts blocking key `key` (Algorithm 2).
  void Insert(std::string_view key);

  /// Membership query (Algorithm 1): true when `key` was (probably)
  /// inserted; false when it definitely was not. One-sided error: no false
  /// negatives; false positives bounded by 1 - (1 - fp)^m per block.
  bool Query(std::string_view key) const;

  /// Composite-key membership (Sec. 4.1: "In case of composite keys, we
  /// perform a conjunction using the individual keys"): true iff every
  /// individual key queries true. Error stays one-sided; conjunction
  /// DECREASES the false-positive probability (all parts must collide).
  bool QueryConjunction(const std::vector<std::string>& keys) const;

  /// Keys currently promoted to the skip list's base level — a uniform
  /// random sample of the inserted keys. The overlap estimator uses this as
  /// its Monte-Carlo sample (Sec. 4.3).
  std::vector<std::string> SampledKeys() const;

  /// Number of base-level blocks.
  size_t num_blocks() const { return list_.size(); }

  /// Total number of distinct filter objects (owned, not references).
  size_t num_filters() const { return owned_filters_; }

  const SkipBloomStats& stats() const { return stats_; }
  const SkipBloomOptions& options() const { return options_; }

  /// Bytes held by the synopsis: skip-list nodes, filter objects and
  /// reference vectors. This is the quantity Figure 6b plots.
  size_t ApproximateMemoryUsage() const;

  /// Serializes the whole synopsis (options, blocks, filters — shared
  /// filter references are preserved) so a data custodian can ship it to
  /// another site for pre-blocking analysis, the Fig. 3 protocol. Appended
  /// to `*dst`.
  void EncodeTo(std::string* dst) const;

  /// Reconstructs a synopsis from EncodeTo output. The result answers
  /// queries identically to the original; further inserts are permitted and
  /// draw from a fresh sampling stream.
  static Result<std::unique_ptr<SkipBloom>> DecodeFrom(
      std::string_view* input);

 private:
  using FilterPtr = std::shared_ptr<AnnotatedBloomFilter>;

  /// Per-block payload: the chain of Bloom filters. `filters` mixes filters
  /// owned by this block and filters referenced from the predecessor; the
  /// last owned filter is the "current" one absorbing new keys.
  struct Block {
    std::vector<FilterPtr> filters;
    // Index into `filters` of the current (active) owned filter, or -1.
    int current = -1;
  };

  using List = SkipList<std::string, Block>;

  /// Capacity of each individual filter: sqrt(n)/m.
  size_t FilterCapacity() const;

  /// Membership check without touching the public query counter.
  bool QueryInternal(const std::string& k) const;

  /// Appends a fresh owned filter to `block` and marks it current.
  AnnotatedBloomFilter* AddFilter(Block* block);

  SkipBloomOptions options_;
  mutable SkipBloomStats stats_;
  BernoulliSampler sampler_;
  List list_;
  size_t owned_filters_ = 0;
  uint64_t filter_seed_counter_ = 0;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_SKIP_BLOOM_H_
