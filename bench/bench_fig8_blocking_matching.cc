// Reproduces Figure 8 of the paper: time to perform the blocking step
// (8a standard / 8b LSH) and to resolve the query set Q during the matching
// step (8c standard / 8d LSH), for BlockSketch vs EO vs INV.
//
// Shapes to reproduce (Sec. 7.2):
//  - 8a/8b: EO and INV block records slightly faster than BlockSketch
//    (which pays lambda*rho representative comparisons per insert).
//  - 8c: BlockSketch resolves Q about 2x faster than EO and 1.5x faster
//    than INV (both compare all records in a block).
//  - 8d: under LSH both BlockSketch and EO slow ~3x due to redundancy.

#include <cstdio>

#include "bench_json.h"
#include "quality_runner.h"

namespace sketchlink::bench {
namespace {

void Run(size_t threads, const std::string& metrics_out) {
  Banner("Figure 8 — blocking & matching times",
         "Sub-figures: (a) blocking/standard, (b) blocking/LSH, (c) "
         "matching/standard, (d) matching/LSH.");
  std::printf("threads: %zu\n", threads);

  MetricsSession metrics(metrics_out);
  const auto results =
      RunQualityMatrix(/*entities=*/3000, /*copies=*/12, threads, &metrics);

  const auto print_section = [&](const char* title, const char* blocking,
                                 bool blocking_phase) {
    std::printf("\n--- %s ---\n", title);
    std::printf("%8s %14s %14s %16s\n", "dataset", "method", "seconds",
                "comparisons");
    for (const ExperimentResult& result : results) {
      if (result.blocking != blocking) continue;
      std::printf("%8s %14s %14.4f %16llu\n", result.dataset.c_str(),
                  result.method.c_str(),
                  blocking_phase ? result.report.blocking_seconds
                                 : result.report.matching_seconds,
                  static_cast<unsigned long long>(result.report.comparisons));
    }
  };

  print_section("Fig. 8a  blocking time, standard", "standard", true);
  print_section("Fig. 8b  blocking time, LSH", "lsh", true);
  print_section("Fig. 8c  matching time, standard", "standard", false);
  print_section("Fig. 8d  matching time, LSH", "lsh", false);

  BenchJsonWriter json("fig8_blocking_matching", threads);
  for (const ExperimentResult& result : results) {
    JsonFields& row = json.AddResult();
    row.Add("dataset", result.dataset);
    AddReportFields(&row, result.report);
  }
  json.Finish();
  metrics.Finish();
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  namespace bench = sketchlink::bench;
  const bench::Flags flags(argc, argv,
                           {bench::kThreadsFlag, bench::kMetricsOutFlag});
  bench::Run(flags.Threads(), flags.String("--metrics-out"));
  return 0;
}
