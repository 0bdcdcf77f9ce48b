#ifndef SKETCHLINK_BLOOM_BLOOM_FILTER_H_
#define SKETCHLINK_BLOOM_BLOOM_FILTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sketchlink {

/// Standard Bloom filter over strings (Sec. 3.2 of the paper): `num_bits`
/// bit positions set by `num_hashes` universal hash functions. Supports
/// membership queries with a false-positive probability and no false
/// negatives. Probe positions are derived from a single 128-bit Murmur3
/// hash via double hashing (Kirsch-Mitzenmacher), so inserts and queries
/// cost one string hash regardless of k.
class BloomFilter {
 public:
  /// Creates a filter with exactly `num_bits` bits and `num_hashes` hash
  /// functions. `num_bits` is rounded up to a multiple of 64.
  BloomFilter(size_t num_bits, uint32_t num_hashes, uint64_t seed = 0);

  /// Creates a filter sized for `expected_items` items at false-positive
  /// rate `fp_rate`, using the optimal m = -n*ln(p)/ln(2)^2 and
  /// k = (m/n)*ln(2).
  static BloomFilter WithCapacity(size_t expected_items, double fp_rate,
                                  uint64_t seed = 0);

  BloomFilter(const BloomFilter&) = default;
  BloomFilter& operator=(const BloomFilter&) = default;
  BloomFilter(BloomFilter&&) noexcept = default;
  BloomFilter& operator=(BloomFilter&&) noexcept = default;

  /// Inserts `key`.
  void Insert(std::string_view key);

  /// Returns true if `key` may have been inserted (with fp probability),
  /// false if it definitely has not been.
  bool MayContain(std::string_view key) const;

  /// Number of Insert() calls so far (counts duplicates).
  uint64_t insert_count() const { return insert_count_; }

  /// Number of bits in the filter.
  size_t num_bits() const { return bits_.size() * 64; }

  /// Number of hash functions.
  uint32_t num_hashes() const { return num_hashes_; }

  /// Number of bits currently set to 1.
  size_t CountSetBits() const;

  /// Resets all bits to zero.
  void Clear();

  /// Bytes of memory held by this filter (bit array + bookkeeping).
  size_t ApproximateMemoryUsage() const;

  /// Serializes geometry + bits to `dst` (appended).
  void EncodeTo(std::string* dst) const;

  /// Reconstructs a filter from EncodeTo output.
  static Result<BloomFilter> DecodeFrom(std::string_view* input);

 private:
  uint32_t num_hashes_;
  uint64_t seed_;
  uint64_t insert_count_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_BLOOM_BLOOM_FILTER_H_
