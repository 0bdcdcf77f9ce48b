#ifndef SKETCHLINK_BENCH_BENCH_UTIL_H_
#define SKETCHLINK_BENCH_BENCH_UTIL_H_

// Shared plumbing for the paper-reproduction benchmark binaries. Each binary
// regenerates one table or figure of "Summarization Algorithms for Record
// Linkage" (EDBT 2018) at laptop scale and prints the same rows/series the
// paper reports; see EXPERIMENTS.md for the scale mapping.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"

#include "blocking/presets.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/generators.h"
#include "datagen/perturb.h"
#include "kv/env.h"
#include "linkage/engine.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace sketchlink::bench {

/// The three evaluation data sets, in the paper's presentation order.
inline std::vector<datagen::DatasetKind> AllKinds() {
  return {datagen::DatasetKind::kDblp, datagen::DatasetKind::kNcvr,
          datagen::DatasetKind::kLab};
}

/// A bench's command line, checked against the flags the bench declares.
/// Each flag is `--name VALUE`, or a bare switch when declared with an
/// empty value name; a value named "N" must be a positive integer. Any
/// other argument, a flag without its value, or a malformed N prints usage
/// and exits 2, so a mistyped flag (`--qps` for `--qps0`) can never run the
/// default configuration instead.
class Flags {
 public:
  struct Spec {
    const char* name;   // "--threads"
    const char* value;  // "N", "PATH", or "" for a switch
  };

  Flags(int argc, char** argv, std::initializer_list<Spec> specs)
      : program_(argc > 0 ? argv[0] : "bench"), specs_(specs) {
    for (int i = 1; i < argc; ++i) {
      const Spec* spec = Find(argv[i]);
      if (spec == nullptr) Usage(std::string("unknown flag ") + argv[i]);
      if (*spec->value == '\0') {
        values_[spec->name] = "";
        continue;
      }
      if (i + 1 >= argc) Usage(std::string(spec->name) + " needs a value");
      const std::string value = argv[++i];
      if (std::strcmp(spec->value, "N") == 0 && !PositiveInteger(value)) {
        Usage(std::string(spec->name) + " needs a positive integer, got '" +
              value + "'");
      }
      values_[spec->name] = value;
    }
  }

  bool Has(const char* name) const { return values_.count(name) != 0; }

  /// An N flag's value, or `fallback` when the flag is absent.
  size_t Size(const char* name, size_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }

  /// A flag's value, or "" when the flag is absent.
  std::string String(const char* name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? "" : it->second;
  }

  /// `--threads N` (declare kThreadsFlag); defaults to
  /// hardware_concurrency(). Match results, comparison counts and quality
  /// metrics are identical at every setting — the flag trades wall-clock
  /// only. (The bounded SBlockSketch's eviction/disk-load telemetry is the
  /// exception: concurrent queries interleave differently across stripes,
  /// like cache statistics.)
  size_t Threads() const {
    return Size("--threads", ThreadPool::DefaultThreads());
  }

 private:
  const Spec* Find(const char* arg) const {
    for (const Spec& spec : specs_) {
      if (std::strcmp(arg, spec.name) == 0) return &spec;
    }
    return nullptr;
  }

  static bool PositiveInteger(const std::string& value) {
    if (value.empty() || value.size() > 18) return false;
    for (const char c : value) {
      if (c < '0' || c > '9') return false;
    }
    return std::stoull(value) > 0;
  }

  [[noreturn]] void Usage(const std::string& error) const {
    std::fprintf(stderr, "%s: %s\nusage: %s", program_, error.c_str(),
                 program_);
    for (const Spec& spec : specs_) {
      std::fprintf(stderr, " [%s%s%s]", spec.name, *spec.value ? " " : "",
                   spec.value);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  const char* program_;
  std::vector<Spec> specs_;
  std::map<std::string, std::string> values_;
};

inline constexpr Flags::Spec kThreadsFlag = {"--threads", "N"};

/// The `--metrics-out PATH` flag: benches that declare it attach a
/// MetricRegistry to their pipeline and write registry snapshots to PATH
/// next to their BENCH_<name>.json sidecar (see MetricsSession).
inline constexpr Flags::Spec kMetricsOutFlag = {"--metrics-out", "PATH"};

/// Prints a banner naming the experiment being reproduced.
inline void Banner(const char* experiment, const char* description) {
  std::printf("\n==== %s ====\n%s\n\n", experiment, description);
}

/// Owns the optional per-run MetricRegistry behind `--metrics-out`. Without
/// the flag registry() is nullptr and the pipeline runs unobserved (no
/// latency timing, nothing exported — the zero-cost default). With it,
/// Capture() labels a snapshot while the instrumented components are still
/// alive (the registry is pull-based: a component deregisters its metrics
/// on destruction), and Finish() writes all captured snapshots as JSON to
/// PATH plus the last one in Prometheus text format to PATH.prom.
class MetricsSession {
 public:
  explicit MetricsSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) registry_ = std::make_unique<obs::MetricRegistry>();
  }

  /// nullptr when --metrics-out was not given.
  obs::Registry* registry() { return registry_ == nullptr ? nullptr : registry_.get(); }

  /// Snapshots the registry now under `label`. No-op without a registry.
  void Capture(const std::string& label) {
    if (registry_ == nullptr) return;
    last_snapshot_ = registry_->TakeSnapshot();
    obs::JsonFields row;
    row.Add("label", label);
    row.AddRaw("metrics", obs::ExportJson(last_snapshot_));
    captured_.push_back(row.ToJson());
  }

  /// Writes the sidecars; returns true (quietly) without a registry.
  bool Finish() {
    if (registry_ == nullptr) return true;
    if (captured_.empty()) Capture("final");
    std::string out = "{\n  \"snapshots\": [\n";
    for (size_t i = 0; i < captured_.size(); ++i) {
      out += "    " + captured_[i];
      if (i + 1 < captured_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n}\n";
    const Status json = obs::WriteFile(path_, out);
    const Status prom = obs::WriteFile(
        path_ + ".prom", obs::ExportPrometheusText(last_snapshot_));
    if (!json.ok() || !prom.ok()) {
      std::fprintf(stderr, "cannot write metrics sidecar %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %s and %s.prom\n", path_.c_str(), path_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::unique_ptr<obs::MetricRegistry> registry_;
  obs::RegistrySnapshot last_snapshot_;
  std::vector<std::string> captured_;
};

/// Builds the paper's workload shape for one data set: Q base records and
/// copies_per_entity perturbed records per entity in A (the paper uses 1000
/// copies at |Q| in the hundreds of thousands; the defaults here keep the
/// A:Q ratio meaningful at single-core scale).
inline datagen::Workload MakeScaledWorkload(datagen::DatasetKind kind,
                                            size_t entities, size_t copies,
                                            uint64_t seed = 4242) {
  datagen::WorkloadSpec spec;
  spec.kind = kind;
  spec.num_entities = entities;
  spec.copies_per_entity = copies;
  spec.max_perturb_ops = 4;
  spec.seed = seed;
  // Name data is heavily skewed; assay panels are ordered near-uniformly.
  spec.zipf_skew = (kind == datagen::DatasetKind::kLab) ? 0.3 : 0.8;
  return datagen::MakeWorkload(spec);
}

/// Scratch directory for benches that need the key/value store.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_("/tmp/sketchlink_bench_" + name) {
    (void)kv::RemoveDirRecursively(path_);
    (void)kv::CreateDirIfMissing(path_);
  }
  ~ScratchDir() { (void)kv::RemoveDirRecursively(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Blocking-key stream for the SkipBloom experiments: NCVR-like keys drawn
/// with realistic skew, materialized lazily to keep memory flat.
class KeyStream {
 public:
  KeyStream(size_t distinct_entities, uint64_t seed)
      : base_(datagen::GenerateBase(datagen::DatasetKind::kNcvr,
                                    distinct_entities, seed, 0.6)),
        blocker_(MakeStandardBlocker(datagen::DatasetKind::kNcvr)),
        perturbator_(seed ^ 0xaa, 4, 0),
        rng_(seed ^ 0xbb) {}

  /// Returns the next blocking key of the stream.
  std::string Next() {
    const Record& source = base_[rng_.UniformIndex(base_.size())];
    const Record copy =
        perturbator_.PerturbRecord(source, next_id_++);
    return blocker_->Key(copy);
  }

 private:
  Dataset base_;
  std::unique_ptr<StandardBlocker> blocker_;
  datagen::Perturbator perturbator_;
  Rng rng_;
  RecordId next_id_ = 1'000'000;
};

inline void PrintRow(const char* label, double value, const char* unit) {
  std::printf("  %-38s %12.6f %s\n", label, value, unit);
}

}  // namespace sketchlink::bench

#endif  // SKETCHLINK_BENCH_BENCH_UTIL_H_
