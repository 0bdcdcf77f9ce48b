#include "linkage/pprl_matcher.h"

#include <unordered_set>

#include "common/memory_tracker.h"

namespace sketchlink {

double PprlMatcher::EncodingSimilarity(const BitVector& a,
                                       const BitVector& b) {
  const size_t bits = std::max(a.num_bits(), b.num_bits());
  if (bits == 0) return 1.0;
  return 1.0 - static_cast<double>(a.HammingDistance(b)) /
                   static_cast<double>(bits);
}

Status PprlMatcher::Insert(const Record& record,
                           const std::vector<std::string>& keys,
                           const std::string& key_values) {
  (void)key_values;
  // The encoding is everything this side ever sees of the record.
  encodings_.emplace(record.id, blocker_->Embed(record));
  for (const std::string& key : keys) {
    blocks_[key].push_back(record.id);
  }
  return Status::OK();
}

Status PprlMatcher::ResolveInto(const Record& query, const KeyScratch& keys,
                                QueryScratch* scratch) {
  const BitVector query_encoding = blocker_->Embed(query);
  std::unordered_set<RecordId> seen;
  std::vector<RecordId>& matches = scratch->matches;
  matches.clear();
  for (size_t i = 0; i < keys.num_keys; ++i) {
    auto it = blocks_.find(keys.keys[i]);
    if (it == blocks_.end()) continue;
    for (RecordId id : it->second) {
      if (!seen.insert(id).second) continue;
      auto encoding = encodings_.find(id);
      if (encoding == encodings_.end()) continue;
      ++comparisons_;
      if (EncodingSimilarity(query_encoding, encoding->second) >=
          threshold_) {
        matches.push_back(id);
      }
    }
  }
  return Status::OK();
}

size_t PprlMatcher::ApproximateMemoryUsage() const {
  size_t bytes = sizeof(*this);
  for (const auto& [id, encoding] : encodings_) {
    bytes += sizeof(id) + encoding.ApproximateMemoryUsage() +
             sizeof(void*) * 2;
  }
  for (const auto& [key, members] : blocks_) {
    bytes += StringFootprint(key) + members.capacity() * sizeof(RecordId) +
             sizeof(void*) * 2;
  }
  return bytes;
}

}  // namespace sketchlink
