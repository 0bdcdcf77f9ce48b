// Reproduces Figure 10 of the paper: SBlockSketch running time on the NCVR
// stream while varying the live-table capacity mu, under standard (10a) and
// LSH (10b) blocking.
//
// Shapes to reproduce (Sec. 7.2): doubling mu cuts running time sharply
// (the paper's last doubling to mu = 1M runs ~4x faster than the previous
// point), because a larger live table turns evictions + disk seeks into
// hash-table hits; under LSH the composite keys multiply the incoming key
// stream and the absolute times rise (~156% in the paper).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "linkage/sketch_matchers.h"

namespace sketchlink::bench {
namespace {

void Run() {
  Banner("Figure 10 — SBlockSketch running time vs mu (NCVR)",
         "Streaming blocking+matching of the NCVR workload for doubling mu.");

  const datagen::DatasetKind kind = datagen::DatasetKind::kNcvr;
  const datagen::Workload workload = MakeScaledWorkload(kind, 3000, 8);
  const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
  const GroundTruth truth(workload.a);
  const std::vector<size_t> mus = {200,   400,   800,   1600, 3200,
                                   6400, 12800, 25600, 51200, 102400};

  for (const char* blocking : {"standard", "lsh"}) {
    std::printf("\n--- Fig. 10%s  running time vs mu, %s blocking ---\n",
                std::string(blocking) == "standard" ? "a" : "b", blocking);
    std::printf("%8s %14s %12s %12s\n", "mu", "total_s", "evictions",
                "disk_loads");
    std::unique_ptr<Blocker> blocker;
    if (std::string(blocking) == "standard") {
      blocker = MakeStandardBlocker(kind);
    } else {
      blocker = MakeLshBlocker(kind);
    }

    for (size_t mu : mus) {
      ScratchDir scratch("fig10_" + std::to_string(mu) + "_" + blocking);
      auto db = kv::Db::Open(scratch.path());
      if (!db.ok()) return;
      SBlockSketchOptions options;
      options.mu = mu;
      RecordStore store;
      SBlockSketchMatcher matcher(options, db->get(), similarity, &store);
      LinkageEngine engine(blocker.get(), &matcher, similarity);
      Stopwatch watch;
      if (!engine.BuildIndex(workload.a).ok()) return;
      auto report = engine.ResolveAll(workload.q, truth);
      if (!report.ok()) return;
      std::printf("%8zu %14.3f %12llu %12llu\n", mu, watch.ElapsedSeconds(),
                  static_cast<unsigned long long>(
                      matcher.sketch().stats().evictions),
                  static_cast<unsigned long long>(
                      matcher.sketch().stats().disk_loads));
    }
  }
  std::printf(
      "\nExpected shape: running time falls steeply as mu doubles, then "
      "flattens once the\nworking set of blocks fits (paper: 156min -> 43min "
      "on the last doubling); LSH rows\nrun longer at every mu.\n");
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  sketchlink::bench::Run();
  return 0;
}
