#include "bloom/bloom_filter.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/coding.h"
#include "common/hash.h"

namespace sketchlink {

BloomFilter::BloomFilter(size_t num_bits, uint32_t num_hashes, uint64_t seed)
    : num_hashes_(std::max<uint32_t>(num_hashes, 1)), seed_(seed) {
  const size_t words = std::max<size_t>((num_bits + 63) / 64, 1);
  bits_.assign(words, 0);
}

BloomFilter BloomFilter::WithCapacity(size_t expected_items, double fp_rate,
                                      uint64_t seed) {
  expected_items = std::max<size_t>(expected_items, 1);
  fp_rate = std::clamp(fp_rate, 1e-9, 0.5);
  const double ln2 = std::log(2.0);
  const double m = -static_cast<double>(expected_items) * std::log(fp_rate) /
                   (ln2 * ln2);
  const double k = m / static_cast<double>(expected_items) * ln2;
  return BloomFilter(static_cast<size_t>(std::ceil(m)),
                     static_cast<uint32_t>(std::max(1.0, std::round(k))),
                     seed);
}

void BloomFilter::Insert(std::string_view key) {
  DoubleHasher hasher(key, seed_);
  const uint64_t range = num_bits();
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    const uint64_t pos = hasher.Probe(i, range);
    bits_[pos >> 6] |= (1ULL << (pos & 63));
  }
  ++insert_count_;
}

bool BloomFilter::MayContain(std::string_view key) const {
  DoubleHasher hasher(key, seed_);
  const uint64_t range = num_bits();
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    const uint64_t pos = hasher.Probe(i, range);
    if ((bits_[pos >> 6] & (1ULL << (pos & 63))) == 0) return false;
  }
  return true;
}

size_t BloomFilter::CountSetBits() const {
  size_t count = 0;
  for (uint64_t word : bits_) count += std::popcount(word);
  return count;
}

void BloomFilter::Clear() {
  std::fill(bits_.begin(), bits_.end(), 0);
  insert_count_ = 0;
}

size_t BloomFilter::ApproximateMemoryUsage() const {
  return sizeof(*this) + bits_.capacity() * sizeof(uint64_t);
}

void BloomFilter::EncodeTo(std::string* dst) const {
  PutVarint32(dst, num_hashes_);
  PutFixed64(dst, seed_);
  PutVarint64(dst, insert_count_);
  PutVarint64(dst, bits_.size());
  for (uint64_t word : bits_) PutFixed64(dst, word);
}

Result<BloomFilter> BloomFilter::DecodeFrom(std::string_view* input) {
  uint32_t num_hashes;
  uint64_t seed;
  uint64_t insert_count;
  uint64_t num_words;
  if (!GetVarint32(input, &num_hashes) || !GetFixed64(input, &seed) ||
      !GetVarint64(input, &insert_count) ||
      !GetVarint64(input, &num_words)) {
    return Status::Corruption("truncated Bloom filter header");
  }
  if (input->size() < num_words * 8) {
    return Status::Corruption("truncated Bloom filter bits");
  }
  BloomFilter filter(num_words * 64, num_hashes, seed);
  filter.insert_count_ = insert_count;
  for (uint64_t i = 0; i < num_words; ++i) {
    uint64_t word;
    GetFixed64(input, &word);
    filter.bits_[i] = word;
  }
  return filter;
}

}  // namespace sketchlink
