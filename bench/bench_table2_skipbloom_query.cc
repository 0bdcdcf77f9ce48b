// Reproduces Table 2 of the paper: time (seconds) consumed by SkipBloom to
// report the existence of a key, at stream scales 10M/100M/500M (scaled here
// 100K/500K/2M). The paper's finding: lookup latency is almost flat in the
// stream size (O(log sqrt(n)) plus a constant number of filter probes) —
// 0.000277s / 0.000315s / 0.000365s on their hardware.

#include <atomic>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/skip_bloom.h"

namespace sketchlink::bench {
namespace {

void Run(size_t threads) {
  Banner("Table 2 — SkipBloom key-lookup latency",
         "Average time to report the existence of a key vs stream size.");
  std::printf("threads: %zu\n", threads);

  const std::vector<size_t> scales = {100'000, 500'000, 2'000'000};
  const size_t kQueries = 200'000;
  // The query workload is carved into a fixed number of shards with
  // per-shard RNGs, so the exact key mix issued is independent of the
  // thread count; the pool only changes how shards map onto threads.
  const size_t kShards = 64;

  ThreadPool pool(threads);
  BenchJsonWriter json("table2_skipbloom_query", threads);

  std::printf("%12s %18s %20s\n", "records", "avg_query_us",
              "queries_per_sec");
  for (size_t n : scales) {
    SkipBloomOptions options;
    options.expected_keys = n;
    SkipBloom synopsis(options);
    KeyStream stream(n / 10, n);
    std::vector<std::string> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i) keys.push_back(stream.Next());
    for (const std::string& key : keys) synopsis.Insert(key);

    // Query mix: half present keys, half absent probes, as a pre-blocking
    // membership workload would issue. Concurrent Query is read-only
    // (stats are relaxed atomics), so shards fan out across the pool.
    std::atomic<size_t> sink{0};
    Stopwatch watch;
    pool.RunShards(kShards, [&](size_t shard) {
      Rng rng(n ^ 0x77 ^ (shard * 0x9e3779b97f4a7c15ULL));
      const size_t begin = shard * kQueries / kShards;
      const size_t end = (shard + 1) * kQueries / kShards;
      size_t hits = 0;
      for (size_t i = begin; i < end; ++i) {
        if (i & 1) {
          hits += synopsis.Query(keys[rng.UniformIndex(keys.size())]);
        } else {
          hits += synopsis.Query("ABSENT#" + std::to_string(rng.NextUint64()));
        }
      }
      sink.fetch_add(hits, std::memory_order_relaxed);
    });
    const double seconds = watch.ElapsedSeconds();
    (void)sink.load();
    const double qps = static_cast<double>(kQueries) / seconds;
    std::printf("%12zu %18.4f %20.0f\n", n,
                seconds / static_cast<double>(kQueries) * 1e6, qps);

    JsonFields& row = json.AddResult();
    row.Add("method", "SkipBloom");
    row.Add("records", static_cast<uint64_t>(n));
    row.Add("queries", static_cast<uint64_t>(kQueries));
    row.Add("total_seconds", seconds);
    row.Add("avg_query_us", seconds / static_cast<double>(kQueries) * 1e6);
    row.Add("queries_per_second", qps);
    row.Add("filter_probes",
            static_cast<uint64_t>(synopsis.stats().filter_probes));
    row.Add("memory_bytes",
            static_cast<uint64_t>(synopsis.ApproximateMemoryUsage()));
  }
  std::printf(
      "\nExpected shape: avg query time nearly flat across scales "
      "(Table 2's 0.277ms -> 0.365ms over a 50x size increase).\n");
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
