// Measures the cost of observability: the same blocking + matching workload
// run in four variants —
//   unobserved  no registry, no tracer (counters only, no clock reads)
//   observed    full MetricRegistry (latency histograms armed per query)
//   traced_off  registry + Tracer attached with sample_period=0
//               (tracing compiled in and wired through, but disabled)
//   traced      registry + Tracer at the default head-sampling rate
//
// Acceptance gates for the telemetry plane (recorded in
// BENCH_obs_overhead.json and DESIGN.md §8): `observed` and `traced` must
// stay within 5% of `unobserved`, and `traced_off` within 1% of `observed`
// (the increment of carrying a disabled tracer through every layer). Each
// variant runs several times interleaved and the fastest repetition is
// compared, which filters allocator/page-cache warm-up noise from the
// small absolute times.
//
// Flags: --threads N  --entities N  --copies N  --reps N

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "linkage/sketch_matchers.h"
#include "obs/spans.h"

namespace sketchlink::bench {
namespace {

struct VariantResult {
  double best_matching_seconds = 0.0;
  double blocking_seconds = 0.0;
  double queries_per_second = 0.0;
  uint64_t queries = 0;
};

/// One ready-to-query pipeline (index already built).
struct Variant {
  Variant(std::string label_in, obs::Registry* registry_in,
          obs::Tracer* tracer_in)
      : label(std::move(label_in)), registry(registry_in), tracer(tracer_in) {}

  Status Build(const datagen::Workload& workload,
               const RecordSimilarity& similarity, const Blocker* blocker,
               size_t threads) {
    matcher = std::make_unique<BlockSketchMatcher>(BlockSketchOptions(),
                                                   similarity, &store);
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    engine_options.registry = registry;
    engine_options.metrics_instance = label;
    engine_options.tracer = tracer;
    engine = std::make_unique<LinkageEngine>(blocker, matcher.get(),
                                             similarity, engine_options);
    return engine->BuildIndex(workload.a);
  }

  void Measure(const datagen::Workload& workload, const GroundTruth& truth) {
    auto report = engine->ResolveAll(workload.q, truth);
    if (!report.ok()) return;
    if (result.queries == 0 ||
        report->matching_seconds < result.best_matching_seconds) {
      result.best_matching_seconds = report->matching_seconds;
      result.blocking_seconds = report->blocking_seconds;
      result.queries_per_second = report->queries_per_second;
      result.queries = workload.q.size();
    }
  }

  std::string label;
  obs::Registry* registry;
  obs::Tracer* tracer;
  RecordStore store;
  std::unique_ptr<BlockSketchMatcher> matcher;
  std::unique_ptr<LinkageEngine> engine;
  VariantResult result;
};

double OverheadPercent(double base_seconds, double variant_seconds) {
  return base_seconds > 0.0 ? (variant_seconds / base_seconds - 1.0) * 100.0
                            : 0.0;
}


void Run(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {kThreadsFlag, {"--entities", "N"}, {"--copies", "N"},
                     {"--reps", "N"}});
  const size_t threads = flags.Threads();
  const size_t entities = flags.Size("--entities", 3000);
  const size_t copies = flags.Size("--copies", 12);
  // The matching phase is ~10ms at default scale, so a single measurement
  // is dominated by scheduling/frequency noise. The index is built once per
  // variant and the query set resolved many times on the same engine
  // (queries do not mutate the sketch); the minimum over repetitions is the
  // noise-floor estimate of the true cost.
  const int repetitions =
      static_cast<int>(flags.Size("--reps", 15));

  Banner("Observability overhead — registry and tracer variants",
         "Identical BlockSketch workload; `observed` arms latency "
         "histograms, `traced_off` adds a disabled tracer, `traced` head-"
         "samples at the default rate.");
  std::printf("threads: %zu, repetitions per variant: %d\n", threads,
              repetitions);

  // Bench-lifetime registry and tracers, shared by every dataset's variants.
  obs::MetricRegistry registry;
  obs::Tracer::Options off_options;
  off_options.sample_period = 0;
  obs::Tracer tracer_off(off_options);
  obs::Tracer tracer_default((obs::Tracer::Options()));
  const auto tracer_regs = tracer_default.RegisterMetrics(&registry, "traced");

  BenchJsonWriter json("obs_overhead", threads);
  std::printf("%8s %14s %14s %14s %14s\n", "dataset", "unobserved_s",
              "observed_s", "traced_off_s", "traced_s");

  for (datagen::DatasetKind kind : AllKinds()) {
    const datagen::Workload workload =
        MakeScaledWorkload(kind, entities, copies);
    const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
    const GroundTruth truth(workload.a);
    const auto blocker = MakeStandardBlocker(kind);
    const std::string dataset(datagen::DatasetKindName(kind));

    std::vector<std::unique_ptr<Variant>> variants;
    variants.push_back(
        std::make_unique<Variant>("unobserved", nullptr, nullptr));
    variants.push_back(
        std::make_unique<Variant>("observed", &registry, nullptr));
    variants.push_back(
        std::make_unique<Variant>("traced_off", &registry, &tracer_off));
    variants.push_back(
        std::make_unique<Variant>("traced", &registry, &tracer_default));
    bool built = true;
    for (auto& variant : variants) {
      if (!variant->Build(workload, similarity, blocker.get(), threads)
               .ok()) {
        std::fprintf(stderr, "build failed for %s/%s\n", dataset.c_str(),
                     variant->label.c_str());
        built = false;
      }
    }
    if (!built) continue;

    // Interleaved so machine-level drift (frequency, co-tenants) hits every
    // variant equally; min-of-reps then compares noise floors.
    for (int rep = 0; rep < repetitions; ++rep) {
      for (auto& variant : variants) variant->Measure(workload, truth);
    }
    const VariantResult& unobserved = variants[0]->result;
    const VariantResult& observed = variants[1]->result;
    const VariantResult& traced_off = variants[2]->result;
    const VariantResult& traced = variants[3]->result;

    std::printf("%8s %14.4f %14.4f %14.4f %14.4f\n", dataset.c_str(),
                unobserved.best_matching_seconds,
                observed.best_matching_seconds,
                traced_off.best_matching_seconds,
                traced.best_matching_seconds);

    JsonFields& row = json.AddResult();
    row.Add("dataset", dataset);
    row.Add("queries", unobserved.queries);
    row.Add("unobserved_matching_seconds", unobserved.best_matching_seconds);
    row.Add("observed_matching_seconds", observed.best_matching_seconds);
    row.Add("traced_off_matching_seconds", traced_off.best_matching_seconds);
    row.Add("traced_matching_seconds", traced.best_matching_seconds);
    row.Add("unobserved_blocking_seconds", unobserved.blocking_seconds);
    row.Add("observed_blocking_seconds", observed.blocking_seconds);
    row.Add("unobserved_queries_per_second", unobserved.queries_per_second);
    row.Add("observed_queries_per_second", observed.queries_per_second);
    row.Add("traced_queries_per_second", traced.queries_per_second);
    row.Add("observed_overhead_percent",
            OverheadPercent(unobserved.best_matching_seconds,
                            observed.best_matching_seconds));
    // The compiled-in-but-disabled gate, both against the unobserved base
    // and as tracing's increment over metrics alone.
    row.Add("traced_off_overhead_percent",
            OverheadPercent(unobserved.best_matching_seconds,
                            traced_off.best_matching_seconds));
    row.Add("traced_off_increment_percent",
            OverheadPercent(observed.best_matching_seconds,
                            traced_off.best_matching_seconds));
    row.Add("traced_overhead_percent",
            OverheadPercent(unobserved.best_matching_seconds,
                            traced.best_matching_seconds));
  }

  std::printf(
      "\nExpected shape: observed and traced within 5%% of unobserved, "
      "traced_off within 1%% of observed\n(the un-admitted StartTrace path "
      "is one thread-local tick; sample_period=0 returns before any\n"
      "metric write; latency timers sample 1 in %u operations).\n",
      1u << obs::kLatencySamplePeriodLog2);
  json.Finish();
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  sketchlink::bench::Run(argc, argv);
  return 0;
}
