#include "core/skip_bloom.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/coding.h"
#include "common/memory_tracker.h"

namespace sketchlink {

SkipBloom::SkipBloom(const SkipBloomOptions& options)
    : options_(options),
      sampler_(1.0 / std::sqrt(static_cast<double>(
                         std::max<uint64_t>(options.expected_keys, 1))),
               options.seed),
      list_(options.seed ^ 0x51ULL) {
  // Sentinel block: the empty key sorts before every real key, so
  // FindLessOrEqual always lands on a block and keys smaller than the first
  // sampled key have a home.
  Block sentinel;
  list_.InsertOrAssign(std::string(), std::move(sentinel));
}

size_t SkipBloom::FilterCapacity() const {
  const double sqrt_n =
      std::sqrt(static_cast<double>(std::max<uint64_t>(
          options_.expected_keys, 1)));
  const double capacity =
      sqrt_n / static_cast<double>(std::max<size_t>(
                   options_.filters_per_block, 1));
  return std::max<size_t>(static_cast<size_t>(std::ceil(capacity)), 8);
}

AnnotatedBloomFilter* SkipBloom::AddFilter(Block* block) {
  auto filter = std::make_shared<AnnotatedBloomFilter>(
      FilterCapacity(), options_.bloom_fp,
      options_.seed + (++filter_seed_counter_));
  AnnotatedBloomFilter* raw = filter.get();
  block->filters.push_back(std::move(filter));
  block->current = static_cast<int>(block->filters.size()) - 1;
  ++owned_filters_;
  return raw;
}

void SkipBloom::Insert(std::string_view key) {
  ++stats_.inserts;
  const std::string k(key);

  // The synopsis summarizes the universe (set) of blocking keys: a key the
  // structure already reports present contributes nothing new, and skipping
  // it keeps the skip-list sample uniform over DISTINCT keys rather than
  // frequency-weighted — which is what the Monte-Carlo overlap estimator
  // needs. (A Bloom false positive here merely drops a duplicate-looking
  // key; membership stays correct.)
  if (options_.dedup_inserts && QueryInternal(k)) {
    ++stats_.duplicate_skips;
    return;
  }

  if (sampler_.NextSample()) {
    // Algorithm 2, lines 1-8: promote `key` to the skip list.
    List::Node* prev = list_.FindLessOrEqual(k);
    if (prev != nullptr && prev->key == k) {
      // The key is already a block: its membership is recorded by the node
      // itself, nothing to move.
      return;
    }
    ++stats_.sampled_keys;
    Block block;
    if (prev != nullptr) {
      // Reference every predecessor filter whose annotated range may hold
      // keys that now belong to the new block (everything >= k); this is
      // the Fig. 2 hand-off. The filters stay shared, not copied.
      for (const FilterPtr& filter : prev->value.filters) {
        if (filter->count() > 0 && filter->max_key() >= k) {
          block.filters.push_back(filter);
        }
      }
    }
    List::Node* node = list_.InsertOrAssign(k, std::move(block));
    AddFilter(&node->value);
    return;
  }

  // Algorithm 2, lines 10-18: absorb `key` into the nearest block's current
  // Bloom filter.
  List::Node* target = list_.FindLessOrEqual(k);
  // The sentinel guarantees a target exists.
  if (target->key == k) return;  // key coincides with a sampled block
  Block& block = target->value;
  AnnotatedBloomFilter* current =
      (block.current >= 0) ? block.filters[block.current].get() : nullptr;
  if (current == nullptr || current->Full()) {
    current = AddFilter(&block);
  }
  current->Insert(k);
}

bool SkipBloom::Query(std::string_view key) const {
  ++stats_.queries;
  return QueryInternal(std::string(key));
}

bool SkipBloom::QueryConjunction(const std::vector<std::string>& keys) const {
  if (keys.empty()) return false;
  for (const std::string& key : keys) {
    if (!Query(key)) return false;
  }
  return true;
}

bool SkipBloom::QueryInternal(const std::string& k) const {
  List::Node* target = list_.FindLessOrEqual(k);
  if (target == nullptr) return false;
  if (!target->key.empty() && target->key == k) return true;
  // Algorithm 1: scan the block's filters (owned + referenced), using the
  // min/max annotations to skip filters whose range cannot contain k.
  for (const FilterPtr& filter : target->value.filters) {
    ++stats_.filter_probes;
    if (filter->MayContain(k)) return true;
  }
  return false;
}

std::vector<std::string> SkipBloom::SampledKeys() const {
  std::vector<std::string> keys;
  keys.reserve(list_.size());
  for (auto it = list_.NewIterator(); it.Valid(); it.Next()) {
    if (!it.key().empty()) keys.push_back(it.key());
  }
  return keys;
}

namespace {

constexpr uint32_t kSkipBloomMagic = 0x534b4250;  // "SKBP"

// Bit-exact double <-> uint64 transport for the fp option.
uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

void SkipBloom::EncodeTo(std::string* dst) const {
  PutFixed32(dst, kSkipBloomMagic);
  PutVarint64(dst, options_.expected_keys);
  PutVarint64(dst, options_.filters_per_block);
  PutFixed64(dst, DoubleBits(options_.bloom_fp));
  dst->push_back(options_.dedup_inserts ? 1 : 0);
  PutFixed64(dst, options_.seed);

  // Filters are shared between blocks (the Fig. 2 references); serialize
  // each distinct filter once and refer to it by index.
  std::unordered_map<const AnnotatedBloomFilter*, uint32_t> filter_ids;
  std::string filter_section;
  for (auto it = list_.NewIterator(); it.Valid(); it.Next()) {
    for (const FilterPtr& filter : it.value().filters) {
      if (filter_ids.emplace(filter.get(),
                             static_cast<uint32_t>(filter_ids.size()))
              .second) {
        filter->EncodeTo(&filter_section);
      }
    }
  }
  PutVarint32(dst, static_cast<uint32_t>(filter_ids.size()));
  dst->append(filter_section);

  PutVarint64(dst, list_.size());
  for (auto it = list_.NewIterator(); it.Valid(); it.Next()) {
    PutLengthPrefixed(dst, it.key());
    const Block& block = it.value();
    PutVarint32(dst, static_cast<uint32_t>(block.current + 1));  // -1 -> 0
    PutVarint32(dst, static_cast<uint32_t>(block.filters.size()));
    for (const FilterPtr& filter : block.filters) {
      PutVarint32(dst, filter_ids.at(filter.get()));
    }
  }
}

Result<std::unique_ptr<SkipBloom>> SkipBloom::DecodeFrom(
    std::string_view* input) {
  uint32_t magic;
  if (!GetFixed32(input, &magic) || magic != kSkipBloomMagic) {
    return Status::Corruption("bad SkipBloom magic");
  }
  SkipBloomOptions options;
  uint64_t filters_per_block;
  uint64_t fp_bits;
  if (!GetVarint64(input, &options.expected_keys) ||
      !GetVarint64(input, &filters_per_block) ||
      !GetFixed64(input, &fp_bits) || input->empty()) {
    return Status::Corruption("truncated SkipBloom header");
  }
  options.filters_per_block = static_cast<size_t>(filters_per_block);
  options.bloom_fp = DoubleFromBits(fp_bits);
  options.dedup_inserts = input->front() != 0;
  input->remove_prefix(1);
  if (!GetFixed64(input, &options.seed)) {
    return Status::Corruption("truncated SkipBloom seed");
  }

  auto synopsis = std::make_unique<SkipBloom>(options);
  // Drop the constructor's sentinel; the encoded block list contains it.
  synopsis->list_.Clear();
  synopsis->owned_filters_ = 0;

  uint32_t num_filters;
  if (!GetVarint32(input, &num_filters)) {
    return Status::Corruption("truncated SkipBloom filter count");
  }
  std::vector<FilterPtr> filters;
  filters.reserve(num_filters);
  for (uint32_t i = 0; i < num_filters; ++i) {
    auto filter = AnnotatedBloomFilter::DecodeFrom(input);
    if (!filter.ok()) return filter.status();
    filters.push_back(
        std::make_shared<AnnotatedBloomFilter>(std::move(*filter)));
  }
  synopsis->owned_filters_ = filters.size();

  uint64_t num_blocks;
  if (!GetVarint64(input, &num_blocks)) {
    return Status::Corruption("truncated SkipBloom block count");
  }
  for (uint64_t b = 0; b < num_blocks; ++b) {
    std::string_view key;
    uint32_t current_plus_one;
    uint32_t num_refs;
    if (!GetLengthPrefixed(input, &key) ||
        !GetVarint32(input, &current_plus_one) ||
        !GetVarint32(input, &num_refs)) {
      return Status::Corruption("truncated SkipBloom block");
    }
    Block block;
    block.current = static_cast<int>(current_plus_one) - 1;
    block.filters.reserve(num_refs);
    for (uint32_t r = 0; r < num_refs; ++r) {
      uint32_t id;
      if (!GetVarint32(input, &id) || id >= filters.size()) {
        return Status::Corruption("bad SkipBloom filter reference");
      }
      block.filters.push_back(filters[id]);
    }
    if (block.current >= static_cast<int>(block.filters.size())) {
      return Status::Corruption("bad SkipBloom current-filter index");
    }
    synopsis->list_.InsertOrAssign(std::string(key), std::move(block));
  }
  return synopsis;
}

size_t SkipBloom::ApproximateMemoryUsage() const {
  size_t bytes = sizeof(*this) + list_.ApproximateNodeMemory();
  std::unordered_set<const void*> seen;
  for (auto it = list_.NewIterator(); it.Valid(); it.Next()) {
    bytes += StringHeapBytes(it.key());
    const Block& block = it.value();
    bytes += block.filters.capacity() * sizeof(FilterPtr);
    for (const FilterPtr& filter : block.filters) {
      if (seen.insert(filter.get()).second) {
        bytes += filter->ApproximateMemoryUsage();
      }
    }
  }
  return bytes;
}

}  // namespace sketchlink
