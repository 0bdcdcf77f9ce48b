#include "baselines/edge_ordering.h"

#include <algorithm>
#include <unordered_set>

#include "common/memory_tracker.h"

namespace sketchlink {

RecordId UnionFind::Find(RecordId id) {
  auto it = parent_.find(id);
  if (it == parent_.end()) {
    parent_[id] = id;
    return id;
  }
  // Path halving.
  while (it->second != id) {
    auto parent_it = parent_.find(it->second);
    it->second = parent_it->second;
    id = it->second;
    it = parent_.find(id);
  }
  return id;
}

void UnionFind::Union(RecordId a, RecordId b) {
  const RecordId ra = Find(a);
  const RecordId rb = Find(b);
  if (ra != rb) parent_[ra] = rb;
}

Status EdgeOrderingMatcher::Insert(const Record& record,
                                   const std::vector<std::string>& keys,
                                   const std::string& key_values) {
  (void)key_values;
  SKETCHLINK_RETURN_IF_ERROR(store_->Put(record));
  oracle_->RegisterRecord(record);
  for (const std::string& key : keys) {
    blocks_[key].push_back(record.id);
  }
  return Status::OK();
}

Status EdgeOrderingMatcher::ResolveInto(const Record& query,
                                        const KeyScratch& keys,
                                        QueryScratch* scratch) {
  oracle_->RegisterRecord(query);

  // Gather the query's target-block members, deduplicated across redundant
  // keys (LSH emits several).
  std::unordered_set<RecordId> candidates;
  for (size_t i = 0; i < keys.num_keys; ++i) {
    auto it = blocks_.find(keys.keys[i]);
    if (it == blocks_.end()) continue;
    candidates.insert(it->second.begin(), it->second.end());
  }

  // Phase 1 — the expensive step the paper criticizes: estimate the match
  // probability of EVERY edge the query formulates in its block.
  struct Edge {
    RecordId id;
    double estimate;
  };
  std::vector<Edge> edges;
  edges.reserve(candidates.size());
  // The scorer normalizes the query's match fields once for the whole
  // block instead of once per edge; scores are bit-identical (see
  // SimilarityScorer).
  const SimilarityScorer scorer(similarity_, query);
  for (RecordId id : candidates) {
    auto record = store_->Get(id);
    if (!record.ok()) return record.status();
    ++comparisons_;
    edges.push_back(Edge{id, scorer.Similarity(*record)});
  }

  // Phase 2 — order edges by decreasing estimate (the "edge ordering").
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.estimate > b.estimate;
  });

  // Phase 3 — submit top edges to the oracle; transitivity lets one answer
  // cover every candidate already clustered with an answered one.
  std::unordered_map<RecordId, bool> cluster_answer;  // root -> oracle verdict
  for (const Edge& edge : edges) {
    if (edge.estimate < options_.submit_threshold) break;  // ordered: done
    const RecordId root = clusters_.Find(edge.id);
    auto known = cluster_answer.find(root);
    bool is_match;
    if (known != cluster_answer.end()) {
      // Another member of this cluster was already adjudicated against the
      // query; transitivity answers for free.
      ++transitivity_skips_;
      is_match = known->second;
    } else {
      is_match = oracle_->Matches(query.id, edge.id);
      cluster_answer[root] = is_match;
    }
    if (is_match) {
      clusters_.Union(query.id, edge.id);
    }
  }

  // The result set scored by the evaluation is every pair EO formulated and
  // compared in the target block: the paper attributes EO's depressed
  // precision precisely to these comparisons ("these comparisons, however,
  // considerably reduce the precision rates", Sec. 7.2).
  std::vector<RecordId>& formulated = scratch->matches;
  formulated.clear();
  formulated.reserve(edges.size());
  for (const Edge& edge : edges) formulated.push_back(edge.id);
  return Status::OK();
}

size_t EdgeOrderingMatcher::ApproximateMemoryUsage() const {
  size_t bytes = sizeof(*this) + clusters_.ApproximateMemoryUsage();
  for (const auto& [key, members] : blocks_) {
    bytes += StringFootprint(key) + members.capacity() * sizeof(RecordId) +
             sizeof(void*) * 2;
  }
  return bytes;
}

}  // namespace sketchlink
