// Reproduces Table 4 of the paper: average time (seconds) for resolving a
// single query record of Q during the matching phase, per data set and
// method, under standard blocking.
//
// Shape to reproduce: BlockSketch's per-query latency is stable across data
// sets (constant number of distance computations), while EO and INV roughly
// double it and vary with block sizes.

#include <cstdio>

#include "bench_json.h"
#include "core/block_sketch.h"
#include "quality_runner.h"

namespace sketchlink::bench {
namespace {

/// Counts the allocations the snapshot-handle Candidates path removed:
/// every query used to allocate (and fill) a std::vector<RecordId> of its
/// candidate ids; it now returns a pinned view into the published block.
/// One vector allocation per query and one id copy per returned candidate,
/// gone — counted exactly on a Table 4-shaped workload.
void ReportRemovedAllocations(BenchJsonWriter* json) {
  BlockSketch sketch{BlockSketchOptions()};
  const datagen::Workload workload =
      MakeScaledWorkload(datagen::DatasetKind::kNcvr, 1000, 8);
  auto blocker = MakeStandardBlocker(datagen::DatasetKind::kNcvr);
  for (const Record& record : workload.a.records()) {
    sketch.Insert(blocker->Key(record), blocker->Key(record), record.id);
  }
  for (const Record& record : workload.q.records()) {
    (void)sketch.Candidates(blocker->Key(record), blocker->Key(record));
  }
  const BlockSketchStats stats = sketch.stats();
  std::printf("\nCandidates snapshot handles (vs. the old full-copy "
              "return):\n");
  std::printf("  removed vector allocations: %llu (one per query)\n",
              static_cast<unsigned long long>(stats.queries));
  std::printf("  removed id copies:          %llu candidates\n",
              static_cast<unsigned long long>(stats.candidates_returned));
  JsonFields& row = json->AddResult();
  row.Add("label", std::string("allocation_accounting"));
  row.Add("queries", stats.queries);
  row.Add("removed_vector_allocations", stats.queries);
  row.Add("removed_id_copies", stats.candidates_returned);
}

void Run(size_t threads, size_t entities, size_t copies,
         const std::string& metrics_out) {
  Banner("Table 4 — average time to resolve one query record",
         "Standard blocking; matching phase only (paper's Table 4).");
  std::printf("threads: %zu entities: %zu copies: %zu\n", threads, entities,
              copies);

  MetricsSession metrics(metrics_out);
  const auto results = RunQualityMatrix(entities, copies, threads, &metrics);

  std::printf("%8s %14s %18s\n", "dataset", "method", "avg_query_us");
  for (const ExperimentResult& result : results) {
    if (result.blocking != "standard") continue;
    std::printf("%8s %14s %18.3f\n", result.dataset.c_str(),
                result.method.c_str(),
                result.report.avg_query_seconds * 1e6);
  }
  std::printf(
      "\nExpected shape: BlockSketch stable and smallest; EO roughly 2x, "
      "INV in between,\nboth varying with block size (paper Table 4).\n");

  BenchJsonWriter json("table4_query_latency", threads);
  for (const ExperimentResult& result : results) {
    JsonFields& row = json.AddResult();
    row.Add("dataset", result.dataset);
    AddReportFields(&row, result.report);
  }
  ReportRemovedAllocations(&json);
  json.Finish();
  metrics.Finish();
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  namespace bench = sketchlink::bench;
  const bench::Flags flags(argc, argv,
                           {bench::kThreadsFlag, {"--entities", "N"},
                            {"--copies", "N"}, bench::kMetricsOutFlag});
  bench::Run(flags.Threads(), flags.Size("--entities", 3000),
             flags.Size("--copies", 12), flags.String("--metrics-out"));
  return 0;
}
