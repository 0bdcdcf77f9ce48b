// Reproduces Figure 9 of the paper: total running time (blocking + matching)
// of SBlockSketch vs BlockSketch under standard (9a) and LSH (9b) blocking.
//
// The BlockSketch baseline runs the identical code path with an unbounded
// live table (mu = infinity): the paper's BlockSketch is exactly that — the
// same summarization without the memory bound — so the measured overhead
// isolates what Problem Statement 3 pays for constant memory: eviction
// scans, block spills, and disk seeks for re-faulted blocks.
//
// Shapes to reproduce (Sec. 7.2): overhead grows with the ratio of distinct
// blocking keys to mu (DBLP/NCVR pay more than a data set whose blocks fit);
// LSH multiplies the incoming keys via the composite HashTableNo_Key format
// and raises the absolute times (~156% in the paper).

#include <cstdio>
#include <memory>

#include "bench_json.h"
#include "bench_util.h"
#include "linkage/sketch_matchers.h"

namespace sketchlink::bench {
namespace {

// The paper's mu = 1M against ~60M distinct NCVR/DBLP keys; 400 keeps a
// comparable distinct-keys:mu ratio at this scale.
constexpr size_t kMu = 400;

struct RunResult {
  double seconds = 0;
  double queries_per_second = 0;
  uint64_t comparisons = 0;
  uint64_t evictions = 0;
  uint64_t disk_loads = 0;
  size_t blocks = 0;
};

RunResult RunOne(const datagen::Workload& workload,
                 const RecordSimilarity& similarity, const GroundTruth& truth,
                 const Blocker* blocker, size_t mu, size_t threads,
                 const std::string& tag, MetricsSession* metrics) {
  RunResult result;
  ScratchDir scratch("fig9_" + tag);
  kv::Options db_options;
  db_options.registry = metrics->registry();
  db_options.metrics_instance = "fig9_spill";
  auto db = kv::Db::Open(scratch.path(), db_options);
  if (!db.ok()) return result;
  SBlockSketchOptions options;
  options.mu = mu;
  RecordStore store;
  SBlockSketchMatcher matcher(options, db->get(), similarity, &store);
  EngineOptions engine_options;
  engine_options.num_threads = threads;
  engine_options.registry = metrics->registry();
  LinkageEngine engine(blocker, &matcher, similarity, engine_options);
  Stopwatch watch;
  if (!engine.BuildIndex(workload.a).ok()) return result;
  auto report = engine.ResolveAll(workload.q, truth);
  if (!report.ok()) return result;
  result.seconds = watch.ElapsedSeconds();
  result.queries_per_second = report->queries_per_second;
  result.comparisons = report->comparisons;
  result.evictions = matcher.sketch().stats().evictions;
  result.disk_loads = matcher.sketch().stats().disk_loads;
  result.blocks = matcher.sketch().num_live_blocks();
  // Snapshot before the matcher/db/engine deregister their instruments.
  metrics->Capture(tag);
  return result;
}

void Run(size_t threads, const std::string& metrics_out) {
  Banner("Figure 9 — SBlockSketch vs BlockSketch running time",
         "Total time to block A and resolve Q; BlockSketch = same code with "
         "unbounded mu.");
  std::printf("threads: %zu\n", threads);
  BenchJsonWriter json("fig9_sblocksketch", threads);
  MetricsSession metrics(metrics_out);

  for (const char* blocking : {"standard", "lsh"}) {
    std::printf("\n--- Fig. 9%s  running time, %s blocking ---\n",
                std::string(blocking) == "standard" ? "a" : "b", blocking);
    std::printf("%8s %10s %16s %16s %10s %12s %12s\n", "dataset",
                "blocks", "blocksketch_s", "sblocksketch_s", "overhead",
                "evictions", "disk_loads");
    for (datagen::DatasetKind kind : AllKinds()) {
      const datagen::Workload workload = MakeScaledWorkload(kind, 2000, 8);
      const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
      const GroundTruth truth(workload.a);

      std::unique_ptr<Blocker> blocker;
      if (std::string(blocking) == "standard") {
        blocker = MakeStandardBlocker(kind);
      } else {
        blocker = MakeLshBlocker(kind);
      }
      const std::string tag = std::string(datagen::DatasetKindName(kind)) +
                              "_" + blocking;

      const RunResult unbounded =
          RunOne(workload, similarity, truth, blocker.get(), SIZE_MAX,
                 threads, tag + "_unbounded", &metrics);
      const RunResult bounded =
          RunOne(workload, similarity, truth, blocker.get(), kMu, threads,
                 tag + "_bounded", &metrics);

      for (const auto* variant : {"unbounded", "bounded"}) {
        const RunResult& r =
            std::string(variant) == "unbounded" ? unbounded : bounded;
        JsonFields& row = json.AddResult();
        row.Add("dataset", std::string(datagen::DatasetKindName(kind)));
        row.Add("blocking", blocking);
        row.Add("variant", variant);
        row.Add("total_seconds", r.seconds);
        row.Add("queries_per_second", r.queries_per_second);
        row.Add("comparisons", r.comparisons);
        row.Add("evictions", r.evictions);
        row.Add("disk_loads", r.disk_loads);
        row.Add("live_blocks", static_cast<uint64_t>(r.blocks));
      }

      std::printf("%8s %10zu %16.3f %16.3f %9.1f%% %12llu %12llu\n",
                  std::string(datagen::DatasetKindName(kind)).c_str(),
                  unbounded.blocks, unbounded.seconds, bounded.seconds,
                  (bounded.seconds / unbounded.seconds - 1.0) * 100.0,
                  static_cast<unsigned long long>(bounded.evictions),
                  static_cast<unsigned long long>(bounded.disk_loads));
    }
  }
  std::printf(
      "\nExpected shape: overhead tracks distinct-blocks/mu (datasets whose "
      "blocks fit in the\nlive table pay ~nothing); LSH rows run several "
      "times longer in absolute terms. The\npaper reports ~10%% overhead at "
      "its (much coarser) timescale, where each operation\nalready pays a "
      "LevelDB round trip in the baseline.\n");
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
