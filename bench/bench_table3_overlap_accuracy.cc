// Reproduces Table 3 of the paper: accuracy of SkipBloom in estimating the
// overlap coefficient between the blocking keys of A and Q, for epsilon in
// {0.10, 0.05} on DBLP / NCVR / LAB. The paper reports estimates within
// ~0.06 of the truth (inside the Monte-Carlo guarantee).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_util.h"
#include "core/overlap.h"
#include "core/skip_bloom.h"

namespace sketchlink::bench {
namespace {

struct KeySets {
  std::vector<std::string> a;
  std::vector<std::string> q;
};

// Builds the two key universes with a controllable overlap: records of
// entities above the cutoff are dropped from A, so a tunable slice of Q's
// keys has no counterpart (the merger scenario of Sec. 1, where customer
// bases only partially overlap).
KeySets BlockingKeysFor(datagen::DatasetKind kind, size_t entities,
                        size_t copies, double shared_entity_fraction) {
  const datagen::Workload workload =
      MakeScaledWorkload(kind, entities, copies);
  const uint64_t cutoff = static_cast<uint64_t>(
      shared_entity_fraction * static_cast<double>(entities));
  auto blocker = MakeStandardBlocker(kind);
  KeySets keys;
  keys.a.reserve(workload.a.size());
  for (const Record& record : workload.a.records()) {
    if (record.entity_id > cutoff) continue;
    keys.a.push_back(blocker->Key(record));
  }
  keys.q.reserve(workload.q.size());
  for (const Record& record : workload.q.records()) {
    keys.q.push_back(blocker->Key(record));
  }
  return keys;
}

void Run() {
  Banner("Table 3 — SkipBloom overlap-coefficient estimation accuracy",
         "Estimated vs true overlap of D_A and D_Q per data set; the\n"
         "epsilon rows vary the Monte-Carlo budget via the synopsis sample.");

  std::printf("%8s %8s %14s %14s %12s\n", "dataset", "epsilon", "true",
              "estimated", "abs_error");
  for (datagen::DatasetKind kind : AllKinds()) {
    const KeySets keys =
        BlockingKeysFor(kind, 4000, 8, /*shared_entity_fraction=*/0.7);
    const double truth = ExactOverlapCoefficient(keys.a, keys.q);

    for (double epsilon : {0.10, 0.05}) {
      // Monte-Carlo needs (eps^2 * theta)^-1 sampled keys from Q. At the
      // paper's scale sqrt(n) exceeds that automatically (sqrt(10^8) = 10^4
      // > 8000); at laptop scale we oversample by shrinking the synopsis's
      // nominal n so that n_actual * n_nominal^-1/2 >= the required sample.
      const size_t sample_target = RequiredSampleSize(epsilon, 0.30);
      const double n_actual = static_cast<double>(keys.q.size());
      const double ratio =
          n_actual / static_cast<double>(sample_target);
      SkipBloomOptions options_q;
      options_q.expected_keys =
          static_cast<uint64_t>(std::max(ratio * ratio, 64.0));
      options_q.bloom_fp = 0.01;
      options_q.seed = static_cast<uint64_t>(epsilon * 1e4) + 7;

      SkipBloomOptions options_a = options_q;
      // A's synopsis answers membership; size it for its real key count and
      // keep the filter FP low enough not to drown the MC error.
      options_a.expected_keys = std::max<uint64_t>(keys.a.size(), 1024);

      SkipBloom synopsis_a(options_a);
      for (const std::string& key : keys.a) synopsis_a.Insert(key);
      SkipBloom synopsis_q(options_q);
      for (const std::string& key : keys.q) synopsis_q.Insert(key);

      const OverlapEstimate estimate =
          EstimateOverlapCoefficient(synopsis_a, synopsis_q);
      std::printf("%8s %8.2f %14.4f %14.4f %12.4f\n",
                  std::string(datagen::DatasetKindName(kind)).c_str(),
                  epsilon, truth, estimate.coefficient,
                  std::abs(estimate.coefficient - truth));
    }
  }
  std::printf(
      "\nExpected shape: absolute errors within ~0.06 (Table 3 reports "
      "0.95-0.98 estimates\nagainst truths near 0.9-1.0, i.e. errors inside "
      "the epsilon guarantee).\n");
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  sketchlink::bench::Run();
  return 0;
}
