// metrics_dump: run an instrumented linkage pipeline and dump the metric
// registry — the quickest way to see every exported series, validate an
// exporter against a scrape target, or eyeball latency distributions.
//
//   metrics_dump [--kind=ncvr] [--entities=500] [--copies=8] [--seed=42]
//       [--method=blocksketch|sblocksketch] [--mu=200] [--threads=1]
//       [--format=prometheus|json|trace] [--out=PATH]
//   metrics_dump --url=http://127.0.0.1:PORT/metrics [--out=PATH]
//
// The pipeline is self-contained (synthetic workload, scratch spill store
// for sblocksketch); the dump goes to stdout unless --out is given.
// --format=trace traces every query of the pipeline and prints the kept
// spans as Chrome trace_event JSON, the format /traces serves. --url skips
// the pipeline entirely and GETs a live endpoint (e.g. `sketchlink_cli
// serve`) with serve::Fetch instead; a transport failure or a non-2xx
// status exits 1. The body is printed/written verbatim so the same
// validators apply to both local dumps and live scrapes. An unknown flag,
// a stray argument or a malformed number exits 2 with usage
// (tools/flags.h).

#include <cstdio>
#include <memory>
#include <string>

#include "blocking/presets.h"
#include "datagen/generators.h"
#include "flags.h"
#include "kv/db.h"
#include "kv/env.h"
#include "linkage/engine.h"
#include "linkage/sketch_matchers.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "serve/http_client.h"

namespace sketchlink::cli {
namespace {

using datagen::DatasetKind;

using tools::Flags;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Writes `output` to --out or stdout, mirroring the pipeline dump path.
int Emit(const Flags& flags, const std::string& output) {
  const std::string out_path = flags.Get("out");
  if (out_path.empty()) {
    std::fputs(output.c_str(), stdout);
    return 0;
  }
  const Status status = obs::WriteFile(out_path, output);
  if (!status.ok()) return Fail(status.ToString());
  std::fprintf(stderr, "wrote %zu bytes to %s\n", output.size(),
               out_path.c_str());
  return 0;
}

/// Scrape mode: GET `url` (http://HOST:PORT/PATH, numeric IPv4 host) and
/// emit the body verbatim.
int ScrapeUrl(const Flags& flags, const std::string& url) {
  const Result<serve::HttpUrl> target = serve::ParseHttpUrl(url);
  if (!target.ok()) return Fail("--url: " + target.status().ToString());
  const Result<serve::HttpResult> response =
      serve::Fetch(target->host, target->port, "GET", target->path);
  if (!response.ok()) {
    return Fail("GET " + url + " failed: " + response.status().ToString());
  }
  if (response->status < 200 || response->status > 299) {
    return Fail("GET " + url + " failed (HTTP " +
                std::to_string(response->status) + "): " + response->body);
  }
  return Emit(flags, response->body);
}

int Main(int argc, char** argv) {
  const Flags flags("metrics_dump",
                    {{"url", "URL"}, {"out", "PATH"}, {"kind", "NAME"},
                     {"format", "NAME"}, {"method", "NAME"}, {"entities", "N"},
                     {"copies", "N"}, {"seed", "N"}, {"mu", "N"},
                     {"threads", "N"}},
                    argc, argv, 1);

  const std::string url = flags.Get("url");
  if (!url.empty()) return ScrapeUrl(flags, url);

  DatasetKind kind;
  const std::string kind_name = flags.Get("kind", "ncvr");
  if (kind_name == "dblp") kind = DatasetKind::kDblp;
  else if (kind_name == "ncvr") kind = DatasetKind::kNcvr;
  else if (kind_name == "lab") kind = DatasetKind::kLab;
  else return Fail("--kind must be dblp|ncvr|lab");

  const std::string format = flags.Get("format", "prometheus");
  if (format != "prometheus" && format != "json" && format != "trace") {
    return Fail("--format must be prometheus|json|trace");
  }
  const std::string method = flags.Get("method", "blocksketch");
  if (method != "blocksketch" && method != "sblocksketch") {
    return Fail("--method must be blocksketch|sblocksketch");
  }

  obs::MetricRegistry registry;
  // --format=trace keeps every query's spans: the dump shows the whole
  // engine -> sketch -> kv tree, not a sample of it.
  obs::Tracer::Options trace_options;
  trace_options.sample_period = 1;
  trace_options.keep_period = 1;
  obs::Tracer tracer(trace_options);

  // Build and run the instrumented pipeline.
  datagen::WorkloadSpec spec;
  spec.kind = kind;
  spec.num_entities = flags.GetInt("entities", 500);
  spec.copies_per_entity = flags.GetInt("copies", 8);
  spec.max_perturb_ops = 4;
  spec.seed = flags.GetInt("seed", 42);
  const datagen::Workload workload = datagen::MakeWorkload(spec);

  auto blocker = MakeStandardBlocker(kind);
  const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
  RecordStore store;

  std::unique_ptr<kv::Db> spill_db;
  std::string scratch;
  std::unique_ptr<OnlineMatcher> matcher;
  if (method == "sblocksketch") {
    scratch = "/tmp/sketchlink_metrics_dump_spill";
    (void)kv::RemoveDirRecursively(scratch);
    (void)kv::CreateDirIfMissing(scratch);
    kv::Options db_options;
    db_options.registry = &registry;
    db_options.metrics_instance = "spill";
    auto db = kv::Db::Open(scratch, db_options);
    if (!db.ok()) return Fail(db.status().ToString());
    spill_db = std::move(*db);
    SBlockSketchOptions options;
    options.mu = flags.GetInt("mu", 200);
    matcher = std::make_unique<SBlockSketchMatcher>(options, spill_db.get(),
                                                    similarity, &store);
  } else {
    matcher = std::make_unique<BlockSketchMatcher>(BlockSketchOptions(),
                                                   similarity, &store);
  }

  EngineOptions engine_options;
  engine_options.num_threads = flags.GetInt("threads", 1);
  engine_options.registry = &registry;
  engine_options.metrics_instance = "dump";
  if (format == "trace") engine_options.tracer = &tracer;
  LinkageEngine engine(blocker.get(), matcher.get(), similarity,
                       engine_options);
  Status status = engine.BuildIndex(workload.a);
  if (!status.ok()) return Fail(status.ToString());
  const GroundTruth truth(workload.a);
  auto report = engine.ResolveAll(workload.q, truth);
  if (!report.ok()) return Fail(report.status().ToString());

  // Snapshot while the engine/matcher/db still hold their registrations.
  std::string output;
  if (format == "prometheus") {
    output = obs::ExportPrometheusText(registry.TakeSnapshot());
  } else if (format == "json") {
    output = obs::ExportJson(registry.TakeSnapshot());
  } else {
    output = obs::ExportChromeTraceJson(tracer.buffer().Snapshot());
  }

  const int rc = Emit(flags, output);
  if (!scratch.empty()) (void)kv::RemoveDirRecursively(scratch);
  return rc;
}

}  // namespace
}  // namespace sketchlink::cli

int main(int argc, char** argv) { return sketchlink::cli::Main(argc, argv); }
