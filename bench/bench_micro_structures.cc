// Microbenchmarks for the data-structure substrate: Bloom filters, the skip
// list, record encoding and the key/value store — the building blocks whose
// costs the SkipBloom/BlockSketch complexity analyses (Secs. 4.2, 5.2, 6.2)
// are expressed in.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "kv/db.h"
#include "kv/env.h"
#include "skiplist/skip_list.h"

namespace sketchlink {
namespace {

std::vector<std::string> MakeKeys(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> keys(count);
  for (auto& key : keys) {
    key = "key" + std::to_string(rng.NextUint64());
  }
  return keys;
}

void BM_BloomInsert(benchmark::State& state) {
  BloomFilter filter = BloomFilter::WithCapacity(
      static_cast<size_t>(state.range(0)), 0.05);
  const auto keys = MakeKeys(4096, 1);
  size_t i = 0;
  for (auto _ : state) {
    filter.Insert(keys[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert)->Arg(5000)->Arg(50000);

void BM_BloomQuery(benchmark::State& state) {
  BloomFilter filter = BloomFilter::WithCapacity(
      static_cast<size_t>(state.range(0)), 0.05);
  const auto keys = MakeKeys(4096, 2);
  for (size_t i = 0; i < keys.size() / 2; ++i) filter.Insert(keys[i]);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MayContain(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery)->Arg(5000)->Arg(50000);

void BM_SkipListInsert(benchmark::State& state) {
  const auto keys = MakeKeys(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    state.PauseTiming();
    SkipList<std::string, int> list(7);
    state.ResumeTiming();
    for (const auto& key : keys) list.InsertOrAssign(key, 1);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkipListInsert)->Arg(1000)->Arg(10000);

void BM_SkipListFindLessOrEqual(benchmark::State& state) {
  SkipList<std::string, int> list(11);
  const auto keys = MakeKeys(static_cast<size_t>(state.range(0)), 4);
  for (const auto& key : keys) list.InsertOrAssign(key, 1);
  const auto probes = MakeKeys(4096, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.FindLessOrEqual(probes[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipListFindLessOrEqual)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_KvPut(benchmark::State& state) {
  const std::string dir = "/tmp/sketchlink_bench_kvput";
  (void)kv::RemoveDirRecursively(dir);
  auto db = kv::Db::Open(dir);
  if (!db.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const auto keys = MakeKeys(4096, 6);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*db)->Put(keys[i++ & 4095], "value-payload"));
  }
  state.SetItemsProcessed(state.iterations());
  db->reset();
  (void)kv::RemoveDirRecursively(dir);
}
BENCHMARK(BM_KvPut);

void BM_KvGet(benchmark::State& state) {
  const std::string dir = "/tmp/sketchlink_bench_kvget";
  (void)kv::RemoveDirRecursively(dir);
  auto db = kv::Db::Open(dir);
  if (!db.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const auto keys = MakeKeys(static_cast<size_t>(state.range(0)), 7);
  for (const auto& key : keys) {
    if (!(*db)->Put(key, "value-payload").ok()) {
      state.SkipWithError("put failed");
      return;
    }
  }
  if (!(*db)->Flush().ok() || !(*db)->Compact(true).ok()) {
    state.SkipWithError("flush failed");
    return;
  }
  std::string value;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*db)->Get(keys[i++ % keys.size()], &value));
  }
  state.SetItemsProcessed(state.iterations());
  db->reset();
  (void)kv::RemoveDirRecursively(dir);
}
BENCHMARK(BM_KvGet)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace sketchlink

// Google Benchmark consumes its own --benchmark_* flags; any other argument
// is rejected like every bench's unknown flags.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const sketchlink::bench::Flags flags(argc, argv, {});
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
