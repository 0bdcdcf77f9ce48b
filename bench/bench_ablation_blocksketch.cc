// Ablation: BlockSketch's lambda / delta knobs (DESIGN.md design-choice
// index). Lemma 5.1 sizes rho = ceil(lambda * ln(1/delta)) representatives
// per sub-block so a co-blocked matching pair is detected with probability
// >= 1 - delta; this sweep shows the recall/comparisons trade-off that
// formula buys, under LSH blocking where sub-block routing actually has
// work to do (standard blocks are near-pure).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "linkage/sketch_matchers.h"

namespace sketchlink::bench {
namespace {

void Run() {
  Banner("Ablation — BlockSketch lambda/delta sweep (NCVR, LSH blocking)",
         "rho = ceil(lambda*ln(1/delta)); recall should rise toward the\n"
         "1-delta guarantee as rho grows, paying comparisons per operation.");

  const datagen::DatasetKind kind = datagen::DatasetKind::kNcvr;
  const datagen::Workload workload = MakeScaledWorkload(kind, 1500, 10);
  const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
  const GroundTruth truth(workload.a);
  auto blocker = MakeLshBlocker(kind);

  std::printf("%8s %8s %6s %10s %12s %22s\n", "lambda", "delta", "rho",
              "recall", "precision", "rep_comparisons/op");
  for (size_t lambda : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    for (double delta : {0.5, 0.1, 0.01}) {
      BlockSketchOptions options;
      options.lambda = lambda;
      options.delta = delta;
      RecordStore store;
      BlockSketchMatcher matcher(options, similarity, &store);
      LinkageEngine engine(blocker.get(), &matcher, similarity);
      if (!engine.BuildIndex(workload.a).ok()) return;
      auto report = engine.ResolveAll(workload.q, truth);
      if (!report.ok()) return;
      const auto& stats = matcher.sketch().stats();
      const double per_op =
          static_cast<double>(stats.representative_comparisons) /
          static_cast<double>(stats.inserts + stats.queries);
      std::printf("%8zu %8.2f %6zu %10.3f %12.3f %22.2f\n", lambda, delta,
                  options.rho(), report->quality.recall,
                  report->quality.precision, per_op);
    }
  }
  std::printf(
      "\nExpected shape: recall saturates once rho covers the sub-block "
      "population; precision\nrises with lambda (finer rings isolate junk); "
      "comparisons/op track lambda*rho.\n");
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  sketchlink::bench::Run();
  return 0;
}
