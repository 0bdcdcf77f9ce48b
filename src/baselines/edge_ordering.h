#ifndef SKETCHLINK_BASELINES_EDGE_ORDERING_H_
#define SKETCHLINK_BASELINES_EDGE_ORDERING_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/oracle.h"
#include "linkage/matcher.h"
#include "linkage/record_store.h"
#include "linkage/similarity.h"

namespace sketchlink {

/// Tuning knobs of the EO baseline.
struct EoOptions {
  /// Probability-estimate floor: edges whose similarity-derived estimate is
  /// below this are never submitted to the oracle. Firmani et al. order
  /// edges by estimated match probability and spend oracle budget top-down;
  /// this floor is where the expected recall gain stops paying for queries.
  double submit_threshold = 0.55;
};

/// Union-find over record ids, used by EO to propagate oracle answers
/// transitively (one answer resolves a whole cluster of already-linked
/// records).
class UnionFind {
 public:
  /// Representative of `id`'s cluster (path-halving).
  RecordId Find(RecordId id);

  /// Merges the clusters of a and b.
  void Union(RecordId a, RecordId b);

  /// True when a and b are known to be in the same cluster.
  bool Connected(RecordId a, RecordId b) { return Find(a) == Find(b); }

  size_t ApproximateMemoryUsage() const {
    return sizeof(*this) + parent_.size() * (sizeof(RecordId) * 2 +
                                             sizeof(void*) * 2);
  }

 private:
  std::unordered_map<RecordId, RecordId> parent_;
};

/// EO — the Edge Ordering progressive strategy of Firmani, Saha &
/// Srivastava (PVLDB'16), the paper's second baseline. Records blocked
/// together form edges; EO estimates each edge's match probability from its
/// similarity, orders edges by the estimate, and submits them to a perfect
/// oracle top-down, using transitivity (via union-find over confirmed
/// matches) to avoid redundant queries.
///
/// Its measured profile in the paper — slightly higher recall than
/// BlockSketch, markedly lower precision, and about twice the resolution
/// time — comes from computing similarities for EVERY pair formulated in
/// the target block before anything can be submitted; that behaviour is
/// reproduced here.
class EdgeOrderingMatcher : public OnlineMatcher {
 public:
  /// `oracle` and `store` must outlive the matcher.
  EdgeOrderingMatcher(EoOptions options, RecordSimilarity similarity,
                      RecordStore* store, Oracle* oracle)
      : options_(options),
        similarity_(std::move(similarity)),
        store_(store),
        oracle_(oracle) {}

  Status Insert(const Record& record, const std::vector<std::string>& keys,
                const std::string& key_values) override;

  /// Resolution: gathers the query's block members, computes ALL pair
  /// similarities, orders the edges, and submits those above the estimate
  /// floor to the oracle (skipping edges already implied by transitivity).
  /// The reported result set is the submitted edges — the pairs EO selects
  /// to maximize recall.
  Status ResolveInto(const Record& query, const KeyScratch& keys,
                     QueryScratch* scratch) override;

  uint64_t comparisons() const override { return comparisons_; }
  /// Oracle invocations so far (EO's budgeted resource).
  uint64_t oracle_queries() const { return oracle_->queries(); }
  /// Oracle queries skipped thanks to transitive closure.
  uint64_t transitivity_skips() const { return transitivity_skips_; }

  size_t ApproximateMemoryUsage() const override;
  std::string name() const override { return "EO"; }

 private:
  EoOptions options_;
  RecordSimilarity similarity_;
  RecordStore* store_;
  Oracle* oracle_;
  // Plain blocking structure: key -> member ids.
  std::unordered_map<std::string, std::vector<RecordId>> blocks_;
  UnionFind clusters_;
  uint64_t comparisons_ = 0;
  uint64_t transitivity_skips_ = 0;
};

}  // namespace sketchlink

#endif  // SKETCHLINK_BASELINES_EDGE_ORDERING_H_
