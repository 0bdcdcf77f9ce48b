// Extension bench (beyond the paper): privacy-preserving linkage over CLK
// encodings vs plaintext BlockSketch on the same LSH blocking. Quantifies
// what the privacy boundary costs — the question the paper's refs [18]/[28]
// study — using this repository's scaled workloads.

#include <cstdio>

#include "bench_util.h"
#include "linkage/pprl_matcher.h"
#include "linkage/sketch_matchers.h"

namespace sketchlink::bench {
namespace {

void Run() {
  Banner("Extension — PPRL (CLK encodings) vs plaintext BlockSketch",
         "Same Hamming LSH blocking; PPRL matches on encodings only.");

  std::printf("%8s %16s %10s %12s %14s %16s\n", "dataset", "method",
              "recall", "precision", "match_time_s", "memory");
  for (datagen::DatasetKind kind : AllKinds()) {
    const datagen::Workload workload = MakeScaledWorkload(kind, 2000, 8);
    const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
    const GroundTruth truth(workload.a);
    auto blocker = MakeLshBlocker(kind);

    {
      RecordStore store;
      BlockSketchMatcher matcher(BlockSketchOptions(), similarity, &store);
      LinkageEngine engine(blocker.get(), &matcher, similarity);
      if (!engine.BuildIndex(workload.a).ok()) return;
      auto report = engine.ResolveAll(workload.q, truth);
      if (!report.ok()) return;
      std::printf("%8s %16s %10.3f %12.3f %14.3f %16s\n",
                  std::string(datagen::DatasetKindName(kind)).c_str(),
                  "plaintext-BS", report->quality.recall,
                  report->quality.precision, report->matching_seconds,
                  FormatBytes(report->matcher_memory_bytes).c_str());
    }
    {
      PprlMatcher matcher(blocker.get(), /*similarity_threshold=*/0.9);
      LinkageEngine engine(blocker.get(), &matcher, similarity);
      if (!engine.BuildIndex(workload.a).ok()) return;
      auto report = engine.ResolveAll(workload.q, truth);
      if (!report.ok()) return;
      std::printf("%8s %16s %10.3f %12.3f %14.3f %16s\n",
                  std::string(datagen::DatasetKindName(kind)).c_str(),
                  "PPRL-CLK", report->quality.recall,
                  report->quality.precision, report->matching_seconds,
                  FormatBytes(report->matcher_memory_bytes).c_str());
    }
  }
  std::printf(
      "\nExpected shape: PPRL tracks the plaintext recall within a few "
      "points (the encoding\npreserves q-gram overlap) and often wins "
      "precision (Hamming similarity at 0.9 is a\ntighter test than "
      "average Jaro-Winkler at 0.75), at comparable match time.\n");
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  sketchlink::bench::Run();
  return 0;
}
