// Microbenchmark of the bit-parallel similarity kernels (src/simd) against
// their scalar references (src/text): one row per single-pair kernel, the
// batched routing path (BatchQuery::Score) that BlockSketch/SBlockSketch use
// to pick a sub-block, and the verification shape (one query field against a
// paper-scale block).
// Results land in BENCH_kernels.json so kernel regressions can be scripted;
// the end-to-end effect on the match phase is bench_table4_query_latency.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/random.h"
#include "simd/bit_profile.h"
#include "simd/jaro_pattern.h"
#include "simd/kernels.h"
#include "simd/score_batch.h"
#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/qgram.h"

namespace sketchlink::bench {
namespace {

// Accumulating into a global keeps the optimizer from eliding the kernels.
double g_sink = 0.0;

std::vector<std::string> MakeStrings(size_t count, size_t length,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> strings(count);
  for (auto& s : strings) {
    // +/- 25% length jitter so the pairs exercise the length-mismatch paths.
    const size_t len = length - length / 4 + rng.UniformIndex(length / 2 + 1);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('A' + rng.UniformUint64(26)));
    }
  }
  return strings;
}

/// Runs `sweep` (which performs `ops_per_sweep` kernel calls) until ~0.2 s
/// has elapsed and returns the mean ns per call.
template <typename Fn>
double TimeNsPerOp(size_t ops_per_sweep, Fn&& sweep) {
  using Clock = std::chrono::steady_clock;
  sweep();  // warm-up: faults in the corpus, primes caches
  const auto start = Clock::now();
  size_t sweeps = 0;
  double elapsed = 0.0;
  do {
    sweep();
    ++sweeps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.2);
  return elapsed * 1e9 / static_cast<double>(sweeps * ops_per_sweep);
}

void Report(BenchJsonWriter* json, const char* kernel, size_t length,
            double kernel_ns, double scalar_ns) {
  const double speedup = scalar_ns / kernel_ns;
  char label[96];
  std::snprintf(label, sizeof(label), "%s len=%zu (%.2fx)", kernel, length,
                speedup);
  PrintRow(label, kernel_ns, "ns/op");
  JsonFields& row = json->AddResult();
  row.Add("kernel", kernel);
  row.Add("length", static_cast<uint64_t>(length));
  row.Add("kernel_ns_per_op", kernel_ns);
  row.Add("scalar_ns_per_op", scalar_ns);
  row.Add("speedup", speedup);
}

struct JaroCorpus {
  std::vector<std::string> strings;
  std::vector<simd::JaroPattern> patterns;
};

JaroCorpus MakeJaroCorpus(size_t count, size_t length, uint64_t seed) {
  JaroCorpus corpus;
  corpus.strings = MakeStrings(count, length, seed);
  corpus.patterns.resize(count);
  for (size_t i = 0; i < count; ++i) {
    simd::BuildJaroPattern(corpus.strings[i], &corpus.patterns[i]);
  }
  return corpus;
}

void BenchJaro(BenchJsonWriter* json, size_t length) {
  const JaroCorpus corpus = MakeJaroCorpus(512, length, 0xa1 + length);
  const size_t n = corpus.strings.size();
  const double scalar_ns = TimeNsPerOp(n, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += text::Jaro(corpus.strings[i], corpus.strings[(i + 1) % n]);
    }
    g_sink += sum;
  });
  const double kernel_ns = TimeNsPerOp(n, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const size_t j = (i + 1) % n;
      sum += simd::Jaro(corpus.strings[i], corpus.strings[j],
                        corpus.patterns[j]);
    }
    g_sink += sum;
  });
  Report(json, "jaro", length, kernel_ns, scalar_ns);
}

void BenchLevenshtein(BenchJsonWriter* json, size_t length) {
  const auto strings = MakeStrings(512, length, 0xb2 + length);
  const size_t n = strings.size();
  const double scalar_ns = TimeNsPerOp(n, [&] {
    size_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += text::Levenshtein(strings[i], strings[(i + 1) % n]);
    }
    g_sink += static_cast<double>(sum);
  });
  const double kernel_ns = TimeNsPerOp(n, [&] {
    size_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += simd::Levenshtein(strings[i], strings[(i + 1) % n]);
    }
    g_sink += static_cast<double>(sum);
  });
  Report(json, "levenshtein", length, kernel_ns, scalar_ns);
}

/// The kernel scores cached profiles; the reference tokenizes both strings
/// on every call (1 - text::QGramDice), which is what the cache saves.
void BenchDice(BenchJsonWriter* json, size_t length, size_t q) {
  const auto strings = MakeStrings(512, length, 0xc3 + length);
  const size_t n = strings.size();
  std::vector<simd::BitProfile> bits(n);
  for (size_t i = 0; i < n; ++i) bits[i] = simd::MakeBitProfile(strings[i], q);
  const double scalar_ns = TimeNsPerOp(n, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 - text::QGramDice(strings[i], strings[(i + 1) % n], q);
    }
    g_sink += sum;
  });
  const double kernel_ns = TimeNsPerOp(n, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += simd::ProfileDiceDistance(bits[i], bits[(i + 1) % n]);
    }
    g_sink += sum;
  });
  Report(json, "profile_dice", length, kernel_ns, scalar_ns);
}

/// The routing shape: one query scored against lambda*rho cached
/// representatives. The scalar reference is the legacy per-representative
/// JaroWinklerDistance loop with the strict-< argmin.
void BenchBatch(BenchJsonWriter* json, size_t batch_size) {
  const std::vector<std::string> strings =
      MakeStrings(batch_size + 64, 14, 0xd4);
  std::vector<simd::BatchCandidate> candidates(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    candidates[i] = {strings[i], nullptr};
  }
  const std::string& query = strings[batch_size];
  const simd::BatchQuery batch(simd::BatchMetric::kJaroWinkler, query);
  const simd::BatchResult once = batch.Score(candidates.data(), batch_size);
  const double prune_rate =
      batch_size == 0 ? 0.0
                      : static_cast<double>(once.pruned) /
                            static_cast<double>(batch_size);

  const double scalar_ns = TimeNsPerOp(batch_size, [&] {
    size_t best = SIZE_MAX;
    double best_distance = 2.0;
    for (size_t i = 0; i < batch_size; ++i) {
      const double d = text::JaroWinklerDistance(query, strings[i]);
      if (d < best_distance) {
        best_distance = d;
        best = i;
      }
    }
    g_sink += best_distance + static_cast<double>(best);
  });
  const double kernel_ns = TimeNsPerOp(batch_size, [&] {
    const simd::BatchResult result = batch.Score(candidates.data(), batch_size);
    g_sink += result.best_distance + static_cast<double>(result.best_index);
  });

  const double speedup = scalar_ns / kernel_ns;
  char label[96];
  std::snprintf(label, sizeof(label), "score_batch n=%zu (%.2fx)", batch_size,
                speedup);
  PrintRow(label, kernel_ns, "ns/candidate");
  JsonFields& row = json->AddResult();
  row.Add("kernel", "score_batch_jw");
  row.Add("batch_size", static_cast<uint64_t>(batch_size));
  row.Add("kernel_ns_per_op", kernel_ns);
  row.Add("scalar_ns_per_op", scalar_ns);
  row.Add("speedup", speedup);
  row.Add("prune_rate", prune_rate);
}

/// The verification shape: one query field scored against every member of
/// a paper-scale sub-block (171 candidates, the median block of the
/// serve_ncvr_paper_blocks workload), name-like fields of ~8 bytes.
/// `per_pair` indexes each candidate on the call (simd::JaroWinkler, the
/// pre-index verification cost); the kernel row binds one JaroWinklerQuery
/// per sweep and only scans. Scalar reference: text::JaroWinkler.
void BenchVerification(BenchJsonWriter* json, size_t block_size) {
  const std::vector<std::string> strings =
      MakeStrings(block_size + 1, 8, 0xe5);
  const std::string& query = strings[block_size];
  const double scalar_ns = TimeNsPerOp(block_size, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < block_size; ++i) {
      sum += text::JaroWinkler(query, strings[i]);
    }
    g_sink += sum;
  });
  const double per_pair_ns = TimeNsPerOp(block_size, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < block_size; ++i) {
      sum += simd::JaroWinkler(query, strings[i]);
    }
    g_sink += sum;
  });
  const double kernel_ns = TimeNsPerOp(block_size, [&] {
    const simd::JaroWinklerQuery indexed(query);
    double sum = 0.0;
    for (size_t i = 0; i < block_size; ++i) {
      sum += indexed.Similarity(strings[i]);
    }
    g_sink += sum;
  });

  char label[96];
  std::snprintf(label, sizeof(label),
                "verify_jw n=%zu (%.2fx vs per-pair %.1f ns)", block_size,
                per_pair_ns / kernel_ns, per_pair_ns);
  PrintRow(label, kernel_ns, "ns/candidate");
  JsonFields& row = json->AddResult();
  row.Add("kernel", "verify_jw");
  row.Add("batch_size", static_cast<uint64_t>(block_size));
  row.Add("kernel_ns_per_op", kernel_ns);
  row.Add("per_pair_ns_per_op", per_pair_ns);
  row.Add("scalar_ns_per_op", scalar_ns);
  row.Add("speedup", scalar_ns / kernel_ns);
}

int Run() {
  Banner("micro_kernels",
         "Bit-parallel similarity kernels vs their scalar references, plus\n"
         "the batched sub-block routing path and one query field verified\n"
         "against a paper-scale block.");

  BenchJsonWriter json("kernels", /*threads=*/1);
  for (const size_t length : {8, 16, 32}) BenchJaro(&json, length);
  for (const size_t length : {16, 48, 200}) BenchLevenshtein(&json, length);
  BenchDice(&json, /*length=*/16, /*q=*/2);
  for (const size_t batch_size : {8, 24, 64}) BenchBatch(&json, batch_size);
  BenchVerification(&json, /*block_size=*/171);
  if (!json.Finish()) return 1;
  if (g_sink == 12345.6789) std::printf("sink %f\n", g_sink);
  return 0;
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  return sketchlink::bench::Run();
}
