// Microbenchmark of the bit-parallel similarity kernels (src/simd) against
// their scalar references (src/text): one row per single-pair kernel, the
// batched routing path (BatchQuery::Score) that BlockSketch/SBlockSketch use
// to pick a sub-block, the verification shape (one query field against a
// paper-scale block), one query verified against a paper-scale block of
// stored record views, and the printing of its scores into a response.
// Results land in BENCH_kernels.json so kernel regressions can be scripted;
// the end-to-end effect on the match phase is bench_table4_query_latency.

#include <charconv>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "blocking/presets.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "linkage/record_store.h"
#include "linkage/similarity.h"
#include "obs/json.h"
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

/// Verification end to end: one NCVR query scored against the views of a
/// paper-scale block (171 records) that a RecordStore hands out. The
/// generated records are normalized, so their views carry
/// fields_normalized() and the scorer reads the stored bytes ("flag set").
/// A second store holds the same records with one lower-case non-match
/// field appended, which clears the flag: the scorer then normalizes each
/// match field first, as it did for every candidate before the flag.
/// Returns the scores, which BenchJsonScore prints.
std::vector<double> BenchVerifyView(BenchJsonWriter* json, size_t block_size) {
  const datagen::DatasetKind kind = datagen::DatasetKind::kNcvr;
  const Dataset records =
      datagen::GenerateBase(kind, block_size + 1, 0xf6, 0.8);
  const Record& query = records[block_size];
  RecordStore flag_set;
  RecordStore flag_clear;
  std::vector<RecordId> ids;
  for (size_t i = 0; i < block_size; ++i) {
    Record record = records[i];
    ids.push_back(record.id);
    (void)flag_set.Put(record);
    record.fields.push_back("not normalized");
    (void)flag_clear.Put(record);
  }
  const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
  const SimilarityScorer scorer(similarity, query);
  std::string scratch;
  std::vector<double> scores(block_size);
  // Mean ns per candidate over `store`'s views; `flagged` counts the views
  // that carry the flag.
  const auto time_views = [&](const RecordStore& store, size_t* flagged) {
    std::vector<RecordView> views;
    if (!store.GetViews(ids, &views).ok()) {
      std::fprintf(stderr, "verify_view: a stored record is missing\n");
      std::exit(1);
    }
    *flagged = 0;
    for (const RecordView& view : views) {
      *flagged += view.fields_normalized() ? 1 : 0;
    }
    return TimeNsPerOp(block_size, [&] {
      double sum = 0.0;
      for (size_t i = 0; i < block_size; ++i) {
        scores[i] = scorer.Similarity(views[i], &scratch);
        sum += scores[i];
      }
      g_sink += sum;
    });
  };
  size_t set_flagged = 0;
  size_t clear_flagged = 0;
  const double set_ns = time_views(flag_set, &set_flagged);
  const double clear_ns = time_views(flag_clear, &clear_flagged);
  char label[96];
  std::snprintf(label, sizeof(label),
                "verify_view n=%zu (%.2fx vs flag clear %.1f ns)", block_size,
                clear_ns / set_ns, clear_ns);
  PrintRow(label, set_ns, "ns/candidate");
  JsonFields& row = json->AddResult();
  row.Add("kernel", "verify_view");
  row.Add("batch_size", static_cast<uint64_t>(block_size));
  row.Add("flag_set_ns_per_op", set_ns);
  row.Add("flag_clear_ns_per_op", clear_ns);
  row.Add("flag_set_views", static_cast<uint64_t>(set_flagged));
  row.Add("flag_clear_views",
          static_cast<uint64_t>(block_size - clear_flagged));
  row.Add("speedup", clear_ns / set_ns);
  return scores;
}

/// Printing a response's scores: `scores` through obs::AppendJsonNumber
/// (one shortest to_chars conversion per score) against the loop it
/// replaced, which prints %.15g, %.16g and %.17g in turn until from_chars
/// reads the value back.
void BenchJsonScore(BenchJsonWriter* json, const std::vector<double>& scores) {
  const size_t n = scores.size();
  std::string out;
  const double reference_ns = TimeNsPerOp(n, [&] {
    out.clear();
    char buf[32];
    for (const double score : scores) {
      char* end = buf;
      for (int precision = 15; precision <= 17; ++precision) {
        end = std::to_chars(buf, buf + sizeof(buf), score,
                            std::chars_format::general, precision)
                  .ptr;
        double parsed = 0;
        if (std::from_chars(buf, end, parsed).ec == std::errc() &&
            parsed == score) {
          break;
        }
      }
      out.append(buf, end);
    }
    g_sink += static_cast<double>(out.size());
  });
  const double kernel_ns = TimeNsPerOp(n, [&] {
    out.clear();
    for (const double score : scores) obs::AppendJsonNumber(score, &out);
    g_sink += static_cast<double>(out.size());
  });
  char label[96];
  std::snprintf(label, sizeof(label), "json_score n=%zu (%.2fx)", n,
                reference_ns / kernel_ns);
  PrintRow(label, kernel_ns, "ns/score");
  JsonFields& row = json->AddResult();
  row.Add("kernel", "json_score");
  row.Add("batch_size", static_cast<uint64_t>(n));
  row.Add("kernel_ns_per_op", kernel_ns);
  row.Add("scalar_ns_per_op", reference_ns);
  row.Add("speedup", reference_ns / kernel_ns);
}

int Run() {
  Banner("micro_kernels",
         "Bit-parallel similarity kernels vs their scalar references, plus\n"
         "the batched sub-block routing path, one query field verified\n"
         "against a paper-scale block, one query verified against a block of\n"
         "stored record views, and the printing of its scores.");

  BenchJsonWriter json("kernels", /*threads=*/1);
  for (const size_t length : {8, 16, 32}) BenchJaro(&json, length);
  for (const size_t length : {16, 48, 200}) BenchLevenshtein(&json, length);
  BenchDice(&json, /*length=*/16, /*q=*/2);
  for (const size_t batch_size : {8, 24, 64}) BenchBatch(&json, batch_size);
  BenchVerification(&json, /*block_size=*/171);
  BenchJsonScore(&json, BenchVerifyView(&json, /*block_size=*/171));
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
