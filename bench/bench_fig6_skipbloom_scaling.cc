// Reproduces Figure 6 of the paper:
//   6a — total time to build a SkipBloom while scaling the streamed NCVR
//        records (paper: 10M / 100M / 500M; scaled here 100K / 500K / 2M).
//   6b — main memory consumed by SkipBloom vs a plain hash map ("MAP").
// The paper's findings to reproduce: build time grows by a constant factor
// per record; SkipBloom's memory is strongly sublinear (0.6/0.8/1.4 GB for
// 10/100/500M) while MAP grows linearly and eventually dies.

#include <cstdio>
#include <vector>

#include "baselines/map_summary.h"
#include "bench_util.h"
#include "core/skip_bloom.h"

namespace sketchlink::bench {
namespace {

void Run() {
  Banner("Figure 6 — SkipBloom scaling (NCVR stream)",
         "6a: build time vs records; 6b: memory, SkipBloom vs MAP.\n"
         "Paper scales 10M/100M/500M; scaled here by 1/250 per DESIGN.md.");

  const std::vector<size_t> scales = {100'000, 500'000, 2'000'000};

  std::printf("%12s %16s %18s %14s %14s\n", "records", "build_time_s",
              "time_per_rec_us", "skipbloom_mem", "map_mem");
  for (size_t n : scales) {
    SkipBloomOptions options;
    options.expected_keys = n;
    options.filters_per_block = 5;
    options.bloom_fp = 0.05;
    SkipBloom synopsis(options);
    MapSummary map;

    KeyStream stream(/*distinct_entities=*/n / 10, /*seed=*/n);
    // Pre-generate keys so that key synthesis cost is excluded from the
    // timed section (the paper streams pre-existing records).
    std::vector<std::string> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i) keys.push_back(stream.Next());

    Stopwatch watch;
    for (const std::string& key : keys) synopsis.Insert(key);
    const double build_seconds = watch.ElapsedSeconds();

    for (const std::string& key : keys) map.Insert(key);

    std::printf("%12zu %16.3f %18.3f %14s %14s\n", n, build_seconds,
                build_seconds / static_cast<double>(n) * 1e6,
                FormatBytes(synopsis.ApproximateMemoryUsage()).c_str(),
                FormatBytes(map.ApproximateMemoryUsage()).c_str());
  }
  std::printf(
      "\nExpected shape: time/record roughly constant; SkipBloom memory "
      "grows ~sqrt(n)\nwhile MAP memory grows linearly (the paper's MAP "
      "dies at 500M records).\n");
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  sketchlink::bench::Run();
  return 0;
}
