#ifndef SKETCHLINK_LINKAGE_PPRL_MATCHER_H_
#define SKETCHLINK_LINKAGE_PPRL_MATCHER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/lsh_blocker.h"
#include "linkage/matcher.h"

namespace sketchlink {

/// Privacy-preserving record linkage matcher (Schnell et al. 2009;
/// Karapiperis & Verykios TKDE'15 — the paper's refs [18]/[28]): records
/// are reduced to record-level Bloom-filter encodings (CLKs) at their
/// custodian and only the bit vectors cross the trust boundary. Blocking
/// uses the Hamming LSH keys of the encoding; matching thresholds the
/// normalized Hamming similarity between encodings. No plaintext field of
/// an indexed record is ever stored or compared here.
class PprlMatcher : public OnlineMatcher {
 public:
  /// `blocker` supplies both the LSH keys and the embedding (it must
  /// outlive the matcher). `similarity_threshold` is the minimum
  /// normalized Hamming similarity (1 - dist/bits) to report a pair.
  PprlMatcher(const HammingLshBlocker* blocker, double similarity_threshold)
      : blocker_(blocker), threshold_(similarity_threshold) {}

  /// Stores the record's ENCODING (not its fields) under its LSH keys.
  Status Insert(const Record& record, const std::vector<std::string>& keys,
                const std::string& key_values) override;

  /// Encodes the query, collects LSH candidates, and reports those whose
  /// encodings are Hamming-similar above the threshold.
  Status ResolveInto(const Record& query, const KeyScratch& keys,
                     QueryScratch* scratch) override;

  uint64_t comparisons() const override { return comparisons_; }
  size_t ApproximateMemoryUsage() const override;
  std::string name() const override { return "PPRL"; }

  /// Normalized Hamming similarity between two encodings.
  static double EncodingSimilarity(const BitVector& a, const BitVector& b);

 private:
  const HammingLshBlocker* blocker_;
  double threshold_;
  // The only per-record state: the opaque encoding.
  std::unordered_map<RecordId, BitVector> encodings_;
  std::unordered_map<std::string, std::vector<RecordId>> blocks_;
  uint64_t comparisons_ = 0;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_LINKAGE_PPRL_MATCHER_H_
