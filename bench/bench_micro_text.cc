// Microbenchmarks for the string-similarity substrate: the distance
// computations dominate every matcher's inner loop, so their unit costs
// contextualize the Figure 8 / Table 4 timings.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "text/double_metaphone.h"
#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/normalize.h"
#include "text/qgram.h"

namespace sketchlink::text {
namespace {

std::vector<std::string> MakeStrings(size_t count, size_t length,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> strings(count);
  for (auto& s : strings) {
    for (size_t i = 0; i < length; ++i) {
      s.push_back(static_cast<char>('A' + rng.UniformUint64(26)));
    }
  }
  return strings;
}

void BM_JaroWinkler(benchmark::State& state) {
  const auto strings = MakeStrings(1024, state.range(0), 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaroWinkler(strings[i % 1024], strings[(i + 1) % 1024]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JaroWinkler)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Levenshtein(benchmark::State& state) {
  const auto strings = MakeStrings(1024, state.range(0), 2);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Levenshtein(strings[i % 1024], strings[(i + 1) % 1024]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BoundedLevenshtein(benchmark::State& state) {
  const auto strings = MakeStrings(1024, state.range(0), 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedLevenshtein(
        strings[i % 1024], strings[(i + 1) % 1024], /*max_distance=*/2));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundedLevenshtein)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_DoubleMetaphone(benchmark::State& state) {
  const auto strings = MakeStrings(1024, 12, 4);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DoubleMetaphone(strings[i % 1024]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DoubleMetaphone);

void BM_QGramDice(benchmark::State& state) {
  const auto strings = MakeStrings(1024, 16, 6);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        QGramDice(strings[i % 1024], strings[(i + 1) % 1024]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QGramDice);

void BM_NormalizeField(benchmark::State& state) {
  const std::string input = "  john   o'brien-SMITH, jr.  ";
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalizeField(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NormalizeField);

}  // namespace
}  // namespace sketchlink::text

// Google Benchmark consumes its own --benchmark_* flags; any other argument
// is rejected like every bench's unknown flags.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const sketchlink::bench::Flags flags(argc, argv, {});
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
