// Reproduces Figure 7 of the paper: recall (7a/7b) and precision (7c/7d) of
// BlockSketch vs the EO and INV baselines, under standard blocking and
// Hamming LSH blocking, on all three data sets.
//
// Shapes to reproduce (Sec. 7.2):
//  - 7a: EO's recall slightly above BlockSketch (within ~0.01-0.04); INV
//    clearly below (double metaphone misses perturbed pairs); DBLP/NCVR
//    above LAB (longer blocking keys tolerate perturbation better).
//  - 7b: LSH blocking lifts recall for BlockSketch (~10%) and EO (~8%);
//    INV cannot use LSH.
//  - 7c: BlockSketch precision clearly above EO (-18%) and INV (-21%).
//  - 7d: LSH redundancy costs both methods some precision; BlockSketch
//    stays on top (paper: close to 0.75 on average).

#include <cstdio>

#include "bench_json.h"
#include "quality_runner.h"

namespace sketchlink::bench {
namespace {

void Run(size_t threads) {
  Banner("Figure 7 — recall & precision, BlockSketch vs EO vs INV",
         "Sub-figures: (a) recall/standard, (b) recall/LSH, (c) precision/"
         "standard, (d) precision/LSH.");
  std::printf("threads: %zu\n", threads);

  const auto results =
      RunQualityMatrix(/*entities=*/3000, /*copies=*/12, threads);

  const auto print_section = [&](const char* title, const char* blocking,
                                 bool recall) {
    std::printf("\n--- %s ---\n", title);
    std::printf("%8s %14s %10s\n", "dataset", "method",
                recall ? "recall" : "precision");
    for (const ExperimentResult& result : results) {
      if (result.blocking != blocking) continue;
      std::printf("%8s %14s %10.3f\n", result.dataset.c_str(),
                  result.method.c_str(),
                  recall ? result.report.quality.recall
                         : result.report.quality.precision);
    }
  };

  print_section("Fig. 7a  recall, standard blocking", "standard", true);
  print_section("Fig. 7b  recall, LSH blocking", "lsh", true);
  print_section("Fig. 7c  precision, standard blocking", "standard", false);
  print_section("Fig. 7d  precision, LSH blocking", "lsh", false);

  BenchJsonWriter json("fig7_quality", threads);
  for (const ExperimentResult& result : results) {
    JsonFields& row = json.AddResult();
    row.Add("dataset", result.dataset);
    AddReportFields(&row, result.report);
  }
  json.Finish();
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  namespace bench = sketchlink::bench;
  const bench::Flags flags(argc, argv, {bench::kThreadsFlag});
  bench::Run(flags.Threads());
  return 0;
}
