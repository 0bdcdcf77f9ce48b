// sketchlink command-line tool: drive the library's pipelines from the
// shell without writing C++.
//
//   sketchlink_cli generate --kind=ncvr --entities=1000 --copies=10
//       --q=q.csv --a=a.csv [--seed=42] [--max-ops=4]
//   sketchlink_cli synopsis --in=a.csv --out=a.sketch [--kind=ncvr]
//       [--expected-keys=N]
//   sketchlink_cli overlap --a=a.sketch --b=b.sketch
//   sketchlink_cli link --a=a.csv --q=q.csv --kind=ncvr
//       [--method=blocksketch|eo|inv|naive] [--blocking=standard|lsh]
//   sketchlink_cli serve [--kind=ncvr] [--entities=500] [--copies=8]
//       [--seed=42] [--method=sblocksketch|blocksketch] [--mu=50]
//       [--threads=1] [--port=0] [--port-file=PATH] [--reuse-addr]
//       [--sample-period=1] [--keep-period=1] [--max-seconds=0]
//   sketchlink_cli api [--port=0] [--port-file=PATH] [--reuse-addr]
//       [--workers=2] [--max-queue=128] [--deadline-ms=5000]
//       [--scratch=/tmp/sketchlink_api] [--max-indexes=16]
//       [--sample-period=1] [--keep-period=1] [--max-seconds=0]
//       [--request-log=PATH] [--log-sample-period=1]
//
// Every command takes only the flags listed for it, each as --flag=value
// (--reuse-addr is a bare switch). An unknown flag, a stray argument or a
// malformed number (--port above 65535, --workers, --max-queue or
// --deadline-ms of 0) exits 2 with usage (tools/flags.h).
//
// `generate` writes a Q/A workload as CSV; `synopsis` compiles a SkipBloom
// from a data set's blocking keys and serializes it (the artifact the
// Fig. 3 protocol ships between custodians); `overlap` estimates the
// overlap coefficient from two synopsis files; `link` runs a full
// blocking+matching experiment and prints the report. `serve` and `api`
// both run on serve::Server and expose /metrics, /metrics.json, /traces,
// /healthz and /statusz until /quitquitquit is hit (GET or POST) or
// --max-seconds elapses. `serve` runs a traced pipeline on one worker; it
// defaults to trace-everything sampling so a scrape of /traces always shows
// parented engine→sketch→kv spans, and its GET /resolve?i=N endpoint
// resolves one workload query under the caller's traceparent (the
// cross-process propagation test surface). `api` starts the concurrent
// linkage-as-a-service plane (src/serve): the /v1/indexes endpoints for
// multi-tenant create/insert/query/delete beside the telemetry surface, all
// on one port; --request-log=PATH additionally writes one JSON line per
// request.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/edge_ordering.h"
#include "baselines/inv_index.h"
#include "baselines/oracle.h"
#include "blocking/presets.h"
#include "core/overlap.h"
#include "core/skip_bloom.h"
#include "datagen/generators.h"
#include "flags.h"
#include "kv/db.h"
#include "kv/env.h"
#include "linkage/engine.h"
#include "linkage/sketch_matchers.h"
#include "obs/build_info.h"
#include "obs/registry.h"
#include "obs/request_log.h"
#include "obs/spans.h"
#include "obs/trace_propagation.h"
#include "obs/url.h"
#include "serve/server.h"
#include "serve/service.h"

namespace sketchlink::cli {
namespace {

using datagen::DatasetKind;

using tools::Flags;
using tools::FlagSpec;

bool ParseKind(const std::string& name, DatasetKind* kind) {
  if (name == "dblp") *kind = DatasetKind::kDblp;
  else if (name == "ncvr") *kind = DatasetKind::kNcvr;
  else if (name == "lab") *kind = DatasetKind::kLab;
  else return false;
  return true;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Generate(const Flags& flags) {
  DatasetKind kind;
  if (!ParseKind(flags.Get("kind", "ncvr"), &kind)) {
    return Fail("--kind must be dblp|ncvr|lab");
  }
  datagen::WorkloadSpec spec;
  spec.kind = kind;
  spec.num_entities = flags.GetInt("entities", 1000);
  spec.copies_per_entity = flags.GetInt("copies", 10);
  spec.max_perturb_ops = static_cast<int>(flags.GetInt("max-ops", 4));
  spec.seed = flags.GetInt("seed", 42);
  const std::string q_path = flags.Get("q", "q.csv");
  const std::string a_path = flags.Get("a", "a.csv");

  const datagen::Workload workload = datagen::MakeWorkload(spec);
  Status status = workload.q.WriteCsv(q_path);
  if (!status.ok()) return Fail(status.ToString());
  status = workload.a.WriteCsv(a_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %zu query records to %s and %zu data records to %s\n",
              workload.q.size(), q_path.c_str(), workload.a.size(),
              a_path.c_str());
  return 0;
}

int Synopsis(const Flags& flags) {
  const std::string in = flags.Get("in");
  const std::string out = flags.Get("out");
  if (in.empty() || out.empty()) return Fail("--in and --out are required");
  auto dataset = Dataset::ReadCsv(in);
  if (!dataset.ok()) return Fail(dataset.status().ToString());

  DatasetKind kind;
  if (!ParseKind(flags.Get("kind", "ncvr"), &kind)) {
    return Fail("--kind must be dblp|ncvr|lab");
  }
  auto blocker = MakeStandardBlocker(kind);

  SkipBloomOptions options;
  options.expected_keys =
      flags.GetInt("expected-keys", dataset->size());
  SkipBloom synopsis(options);
  for (const Record& record : dataset->records()) {
    synopsis.Insert(blocker->Key(record));
  }
  std::string encoded;
  synopsis.EncodeTo(&encoded);
  Status status = kv::WriteStringToFileSync(out, encoded);
  if (!status.ok()) return Fail(status.ToString());
  std::printf(
      "summarized %zu records (%llu distinct-ish keys sampled into %zu "
      "blocks) into %s (%zu bytes)\n",
      dataset->size(),
      static_cast<unsigned long long>(synopsis.stats().sampled_keys),
      synopsis.num_blocks(), out.c_str(), encoded.size());
  return 0;
}

int Overlap(const Flags& flags) {
  const std::string path_a = flags.Get("a");
  const std::string path_b = flags.Get("b");
  if (path_a.empty() || path_b.empty()) {
    return Fail("--a and --b synopsis files are required");
  }
  std::string bytes_a;
  std::string bytes_b;
  Status status = kv::ReadFileToString(path_a, &bytes_a);
  if (!status.ok()) return Fail(status.ToString());
  status = kv::ReadFileToString(path_b, &bytes_b);
  if (!status.ok()) return Fail(status.ToString());

  std::string_view view_a(bytes_a);
  auto synopsis_a = SkipBloom::DecodeFrom(&view_a);
  if (!synopsis_a.ok()) return Fail(synopsis_a.status().ToString());
  std::string_view view_b(bytes_b);
  auto synopsis_b = SkipBloom::DecodeFrom(&view_b);
  if (!synopsis_b.ok()) return Fail(synopsis_b.status().ToString());

  const OverlapEstimate estimate =
      EstimateOverlapCoefficient(**synopsis_a, **synopsis_b);
  std::printf(
      "estimated overlap coefficient |A∩B|/|B| = %.4f  (%zu sampled keys, "
      "%zu found in A)\n",
      estimate.coefficient, estimate.sample_size, estimate.hits);
  return 0;
}

int Link(const Flags& flags) {
  DatasetKind kind;
  if (!ParseKind(flags.Get("kind", "ncvr"), &kind)) {
    return Fail("--kind must be dblp|ncvr|lab");
  }
  auto a = Dataset::ReadCsv(flags.Get("a", "a.csv"));
  if (!a.ok()) return Fail(a.status().ToString());
  auto q = Dataset::ReadCsv(flags.Get("q", "q.csv"));
  if (!q.ok()) return Fail(q.status().ToString());

  const std::string blocking = flags.Get("blocking", "standard");
  std::unique_ptr<Blocker> blocker;
  if (blocking == "standard") {
    blocker = MakeStandardBlocker(kind);
  } else if (blocking == "lsh") {
    blocker = MakeLshBlocker(kind);
  } else {
    return Fail("--blocking must be standard|lsh");
  }

  const RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
  RecordStore store;
  Oracle oracle;
  std::unique_ptr<OnlineMatcher> matcher;
  const std::string method = flags.Get("method", "blocksketch");
  if (method == "blocksketch") {
    matcher = std::make_unique<BlockSketchMatcher>(BlockSketchOptions(),
                                                   similarity, &store);
  } else if (method == "eo") {
    matcher = std::make_unique<EdgeOrderingMatcher>(EoOptions(), similarity,
                                                    &store, &oracle);
  } else if (method == "inv") {
    matcher =
        std::make_unique<InvIndexMatcher>(InvOptions(), similarity, &store);
  } else if (method == "naive") {
    matcher = std::make_unique<NaiveBlockMatcher>(similarity, &store);
  } else {
    return Fail("--method must be blocksketch|eo|inv|naive");
  }

  LinkageEngine engine(blocker.get(), matcher.get(), similarity);
  Status status = engine.BuildIndex(*a);
  if (!status.ok()) return Fail(status.ToString());
  const GroundTruth truth(*a);
  auto report = engine.ResolveAll(*q, truth);
  if (!report.ok()) return Fail(report.status().ToString());

  std::printf("method           %s\n", report->method.c_str());
  std::printf("blocking         %s\n", report->blocking.c_str());
  std::printf("blocking time    %.3f s\n", report->blocking_seconds);
  std::printf("matching time    %.3f s (%.1f us/query)\n",
              report->matching_seconds, report->avg_query_seconds * 1e6);
  std::printf("comparisons      %llu\n",
              static_cast<unsigned long long>(report->comparisons));
  std::printf("matcher memory   %s\n",
              FormatBytes(report->matcher_memory_bytes).c_str());
  std::printf("recall           %.4f\n", report->quality.recall);
  std::printf("precision        %.4f\n", report->quality.precision);
  std::printf("f1               %.4f\n", report->quality.f1);
  return 0;
}

// Trace-everything defaults: the serving commands are debugging surfaces,
// so a scrape of /traces must deterministically show spans, not depend on
// sampling luck.
obs::Tracer::Options TraceOptions(const Flags& flags) {
  obs::Tracer::Options options;
  options.sample_period =
      static_cast<uint32_t>(flags.GetInt("sample-period", 1));
  options.keep_period = static_cast<uint32_t>(flags.GetInt("keep-period", 1));
  return options;
}

// --reuse-addr lets a supervised restart rebind a fixed --port while the
// previous incarnation's socket drains TIME_WAIT. Binding over a live
// listener still fails either way.
serve::EventLoop::Options LoopOptions(const Flags& flags) {
  serve::EventLoop::Options options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.reuse_address = flags.Has("reuse-addr");
  return options;
}

// The tail of every serving command: mounts GET and POST /quitquitquit,
// starts `server`, publishes --port-file, and blocks until /quitquitquit is
// hit or --max-seconds elapses, then drains the server.
int RunServer(serve::Server* server, const Flags& flags, const char* banner,
              const char* endpoints) {
  std::mutex quit_mutex;
  std::condition_variable quit_cv;
  bool quit = false;
  const auto quit_handler = [&](const serve::Server::Request&) {
    {
      std::lock_guard<std::mutex> lock(quit_mutex);
      quit = true;
    }
    quit_cv.notify_all();
    obs::HttpResponse response;
    response.body = "bye\n";
    return response;
  };
  server->AddRoute("POST", "/quitquitquit", quit_handler);
  // GET variant so GET-only clients (metrics_dump --url) can stop the
  // server from test scripts.
  server->AddRoute("GET", "/quitquitquit", quit_handler);

  const Status status = server->Start();
  if (!status.ok()) return Fail(status.ToString());
  std::printf("%s on http://127.0.0.1:%u\n", banner,
              static_cast<unsigned>(server->port()));
  std::printf("endpoints: %s /quitquitquit\n", endpoints);
  std::fflush(stdout);

  // Port file written after Start: a reader never sees a port that is not
  // yet accepting connections.
  const std::string port_file = flags.Get("port-file");
  if (!port_file.empty()) {
    const Status write = kv::WriteStringToFileSync(
        port_file, std::to_string(server->port()) + "\n");
    if (!write.ok()) {
      server->Shutdown();  // the quit handler refers to this frame
      return Fail(write.ToString());
    }
  }

  const uint64_t max_seconds = flags.GetInt("max-seconds", 0);
  {
    std::unique_lock<std::mutex> lock(quit_mutex);
    if (max_seconds == 0) {
      quit_cv.wait(lock, [&] { return quit; });
    } else {
      quit_cv.wait_for(lock, std::chrono::seconds(max_seconds),
                       [&] { return quit; });
    }
  }
  server->Shutdown();
  std::printf("stopped\n");
  return 0;
}

int Serve(const Flags& flags) {
  DatasetKind kind;
  if (!ParseKind(flags.Get("kind", "ncvr"), &kind)) {
    return Fail("--kind must be dblp|ncvr|lab");
  }
  const std::string method = flags.Get("method", "sblocksketch");
  if (method != "blocksketch" && method != "sblocksketch") {
    return Fail("--method must be blocksketch|sblocksketch");
  }

  obs::MetricRegistry registry;
  obs::Tracer tracer(TraceOptions(flags));
  const auto tracer_regs = tracer.RegisterMetrics(&registry, "serve");
  const auto process_regs = obs::RegisterProcessMetrics(&registry);

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

  // sblocksketch (the default) runs with a small mu so queries hit the
  // spill store — that is what puts kv children under the sketch spans.
  std::unique_ptr<kv::Db> spill_db;
  std::string scratch;
  std::unique_ptr<OnlineMatcher> matcher;
  if (method == "sblocksketch") {
    scratch = "/tmp/sketchlink_serve_spill";
    (void)kv::RemoveDirRecursively(scratch);
    (void)kv::CreateDirIfMissing(scratch);
    kv::Options db_options;
    db_options.registry = &registry;
    db_options.metrics_instance = "spill";
    auto db = kv::Db::Open(scratch, db_options);
    if (!db.ok()) return Fail(db.status().ToString());
    spill_db = std::move(*db);
    SBlockSketchOptions options;
    options.mu = flags.GetInt("mu", 50);
    matcher = std::make_unique<SBlockSketchMatcher>(options, spill_db.get(),
                                                    similarity, &store);
  } else {
    matcher = std::make_unique<BlockSketchMatcher>(BlockSketchOptions(),
                                                   similarity, &store);
  }

  EngineOptions engine_options;
  engine_options.num_threads = flags.GetInt("threads", 1);
  engine_options.registry = &registry;
  engine_options.metrics_instance = "serve";
  engine_options.tracer = &tracer;
  LinkageEngine engine(blocker.get(), matcher.get(), similarity,
                       engine_options);
  Status status = engine.BuildIndex(workload.a);
  if (!status.ok()) return Fail(status.ToString());
  const GroundTruth truth(workload.a);
  auto report = engine.ResolveAll(workload.q, truth);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("pipeline ready: %zu records indexed, %zu queries resolved "
              "(recall %.4f)\n",
              workload.a.size(), workload.q.size(), report->quality.recall);

  // One worker resolves requests in arrival order. No server tracer: the
  // engine's per-query span stays the trace root.
  serve::Server::Options server_options;
  server_options.loop = LoopOptions(flags);
  server_options.num_workers = 1;
  serve::Server server(server_options);
  serve::MountTelemetryRoutes(&server, &registry, &tracer);

  // GET /resolve?i=N resolves workload query N under the caller's
  // traceparent (when one is sent): the engine's per-query root span adopts
  // the remote trace identity, so a client can follow its own trace id into
  // this process's engine→sketch→kv chain via /traces.
  server.AddRoute("GET", "/resolve", [&](const serve::Server::Request& r) {
    obs::HttpResponse response;
    const uint64_t i = obs::QueryParams::Parse(r.http.query).GetInt("i", 0);
    if (i >= workload.q.size()) {
      response.status = 400;
      response.body = "i out of range (workload has " +
                      std::to_string(workload.q.size()) + " queries)\n";
      return response;
    }
    obs::RemoteSpanRef remote;
    (void)obs::ParseTraceparent(r.http.Header(obs::kTraceparentHeader),
                                &remote);
    obs::ScopedRemoteParent remote_parent(remote);
    const auto matches = engine.ResolveOne(workload.q.records()[i]);
    if (!matches.ok()) {
      response.status = 500;
      response.body = matches.status().ToString() + "\n";
      return response;
    }
    response.body = "matches " + std::to_string(matches->size()) + "\n";
    return response;
  });

  const int rc = RunServer(&server, flags, "serving",
                           "/metrics /metrics.json /traces /healthz /statusz "
                           "/resolve");
  if (!scratch.empty()) (void)kv::RemoveDirRecursively(scratch);
  return rc;
}

int Api(const Flags& flags) {
  obs::MetricRegistry registry;
  obs::Tracer tracer(TraceOptions(flags));
  const auto tracer_regs = tracer.RegisterMetrics(&registry, "api");
  const auto process_regs = obs::RegisterProcessMetrics(&registry);

  // Optional structured request log (one JSON line per request outcome).
  std::unique_ptr<obs::RequestLog> request_log;
  std::vector<obs::Registration> request_log_regs;
  const std::string request_log_path = flags.Get("request-log");
  if (!request_log_path.empty()) {
    obs::RequestLog::Options log_options;
    log_options.path = request_log_path;
    log_options.sample_period =
        static_cast<uint32_t>(flags.GetInt("log-sample-period", 1));
    request_log = std::make_unique<obs::RequestLog>(log_options);
    request_log_regs = request_log->RegisterMetrics(&registry);
  }

  serve::LinkageService::Options service_options;
  service_options.scratch_dir = flags.Get("scratch", "/tmp/sketchlink_api");
  service_options.max_indexes = flags.GetInt("max-indexes", 16);
  service_options.registry = &registry;
  serve::LinkageService service(service_options);

  serve::Server::Options server_options;
  server_options.loop = LoopOptions(flags);
  server_options.num_workers = flags.GetInt("workers", 2);
  server_options.max_queue = flags.GetInt("max-queue", 128);
  server_options.default_deadline_ms = flags.GetInt("deadline-ms", 5000);
  server_options.registry = &registry;
  server_options.tracer = &tracer;
  server_options.request_log = request_log.get();
  // Tenant attribution for sheds: the server reports the index name the
  // route captured, the service increments that tenant's shed family.
  server_options.shed_observer = [&service](std::string_view index,
                                            std::string_view reason) {
    service.ObserveShed(index, reason);
  };
  serve::Server server(server_options);
  service.RegisterRoutes(&server);

  // The telemetry surface, multiplexed on this port. /statusz carries the
  // serving-plane extras: queue/shed/SLO state from the server plus the
  // per-tenant table from the service.
  serve::MountTelemetryRoutes(&server, &registry, &tracer, [&server, &service] {
    return server.StatuszText() + service.StatuszText();
  });

  return RunServer(&server, flags, "api serving",
                   "/v1/indexes /v1/indexes/{name} "
                   "/v1/indexes/{name}/records /v1/indexes/{name}/query "
                   "/metrics /metrics.json /traces /healthz /statusz");
}

// Flags every serving command takes (TraceOptions, LoopOptions, RunServer).
std::vector<FlagSpec> WithServingFlags(std::vector<FlagSpec> flags) {
  flags.insert(flags.end(), {{"port", "N", 0, 65535}, {"port-file", "PATH"},
                             {"reuse-addr", ""},
                             {"max-seconds", "N", 0, UINT32_MAX},
                             {"sample-period", "N", 0, UINT32_MAX},
                             {"keep-period", "N", 0, UINT32_MAX}});
  return flags;
}

struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<FlagSpec> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"generate", Generate,
       {{"kind", "NAME"}, {"entities", "N"}, {"copies", "N"},
        {"max-ops", "N", 0, INT32_MAX}, {"seed", "N"}, {"q", "PATH"},
        {"a", "PATH"}}},
      {"synopsis", Synopsis,
       {{"in", "PATH"}, {"out", "PATH"}, {"kind", "NAME"},
        {"expected-keys", "N"}}},
      {"overlap", Overlap, {{"a", "PATH"}, {"b", "PATH"}}},
      {"link", Link,
       {{"a", "PATH"}, {"q", "PATH"}, {"kind", "NAME"}, {"method", "NAME"},
        {"blocking", "NAME"}}},
      {"serve", Serve,
       WithServingFlags({{"kind", "NAME"}, {"entities", "N"}, {"copies", "N"},
                         {"seed", "N"}, {"method", "NAME"}, {"mu", "N"},
                         {"threads", "N"}})},
      {"api", Api,
       WithServingFlags({{"workers", "N", 1}, {"max-queue", "N", 1},
                         {"deadline-ms", "N", 1}, {"scratch", "PATH"},
                         {"max-indexes", "N"}, {"request-log", "PATH"},
                         {"log-sample-period", "N", 0, UINT32_MAX}})}};
  return commands;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sketchlink_cli "
               "<generate|synopsis|overlap|link|serve|api> "
               "[--flag=value ...]\n(see the header of tools/sketchlink_cli"
               ".cc for the full flag reference)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  for (const Command& command : Commands()) {
    if (name != command.name) continue;
    const Flags flags("sketchlink_cli " + name, command.flags, argc, argv, 2);
    return command.run(flags);
  }
  return Usage();
}

}  // namespace
}  // namespace sketchlink::cli

int main(int argc, char** argv) { return sketchlink::cli::Main(argc, argv); }
