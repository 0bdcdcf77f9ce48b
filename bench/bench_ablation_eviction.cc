// Ablation: SBlockSketch's eviction-status policy es = e^(w*xi - alpha)
// against classic LRU and FIFO replacement (DESIGN.md design-choice index).
// The paper's policy promotes newer AND more selective blocks; on a skewed
// key stream it should keep hot blocks live and beat FIFO (and track or
// beat LRU) on disk loads.

#include <cstdio>

#include "bench_util.h"
#include "core/sblock_sketch.h"

namespace sketchlink::bench {
namespace {

const char* PolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kEvictionStatus:
      return "eviction-status";
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kFifo:
      return "fifo";
  }
  return "?";
}

void Run() {
  Banner("Ablation — SBlockSketch eviction policy (NCVR stream)",
         "es = e^(w*xi - alpha) vs LRU vs FIFO at several live-table sizes.\n"
         "The stream revisits entities with Zipf-skewed frequency and no\n"
         "temporal locality — the regime the eviction status is built for.");

  const datagen::DatasetKind kind = datagen::DatasetKind::kNcvr;
  auto blocker = MakeStandardBlocker(kind);

  // Hot entities recur often, cold ones rarely, arrivals fully interleaved.
  const Dataset population =
      datagen::GenerateBase(kind, 6000, /*seed=*/0xE1, /*zipf_skew=*/0.8);
  ZipfSampler entity_picker(population.size(), 0.9, 0xE2);
  datagen::Perturbator perturbator(0xE3, 4, 0);
  std::vector<std::pair<std::string, std::string>> stream;  // key, key-values
  stream.reserve(80000);
  for (size_t i = 0; i < 80000; ++i) {
    const Record& base = population[entity_picker.Next()];
    const Record copy = perturbator.PerturbRecord(base, 100000 + i);
    stream.emplace_back(blocker->Key(copy), blocker->KeyValues(copy));
  }

  struct Config {
    EvictionPolicy policy;
    double w;
  };
  // The success weight w controls how many evictions one extra hit buys a
  // block; the paper's example uses 1.5, larger values approach LFU.
  const Config configs[] = {{EvictionPolicy::kEvictionStatus, 1.5},
                            {EvictionPolicy::kEvictionStatus, 8.0},
                            {EvictionPolicy::kEvictionStatus, 32.0},
                            {EvictionPolicy::kLru, 1.5},
                            {EvictionPolicy::kFifo, 1.5}};

  std::printf("%8s %18s %6s %12s %12s %12s %12s\n", "mu", "policy", "w",
              "total_s", "evictions", "disk_loads", "live_hit%");
  for (size_t mu : {size_t{50}, size_t{200}, size_t{800}}) {
    for (const Config& config : configs) {
      const EvictionPolicy policy = config.policy;
      ScratchDir scratch("evict_" + std::to_string(mu) + "_" +
                         PolicyName(policy) + std::to_string(config.w));
      auto db = kv::Db::Open(scratch.path());
      if (!db.ok()) return;
      SBlockSketchOptions options;
      options.mu = mu;
      options.policy = policy;
      options.w = config.w;
      SBlockSketch sketch(options, db->get());
      Stopwatch watch;
      for (size_t i = 0; i < stream.size(); ++i) {
        if (!sketch.Insert(stream[i].first, stream[i].second, i).ok()) {
          return;
        }
      }
      const auto& stats = sketch.stats();
      const double hit_rate = 100.0 *
                              static_cast<double>(stats.live_hits) /
                              static_cast<double>(stats.inserts);
      std::printf("%8zu %18s %6.1f %12.3f %12llu %12llu %11.1f%%\n", mu,
                  PolicyName(policy), config.w, watch.ElapsedSeconds(),
                  static_cast<unsigned long long>(stats.evictions),
                  static_cast<unsigned long long>(stats.disk_loads),
                  hit_rate);
    }
  }
  std::printf(
      "\nExpected shape: eviction-status beats FIFO at every mu, and its "
      "advantage grows with w\n(one hit then buys more evictions of "
      "survival, approaching LFU): at the tightest\nmemory budget, "
      "w = 32 keeps the most hot blocks live. LRU is a strong contender\n"
      "whenever hot keys also recur soon; all policies converge as mu "
      "approaches the\nnumber of distinct blocks.\n");
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  sketchlink::bench::Run();
  return 0;
}
