// Load bench for the linkage-as-a-service plane: an open-loop generator
// sweeps offered QPS against an in-process Server + LinkageService and
// reports tail latency and throughput per step.
//
// Protocol: arrivals are scheduled on a fixed clock (arrival i fires at
// start + i/qps); a small pool of keep-alive client connections claims
// arrivals in order, sleeps until each one's scheduled time, and measures
// latency from the *scheduled* arrival to response completion — so queueing
// delay from a lagging server shows up in the tail instead of silently
// thinning the offered load (closed-loop coordinated omission). Every
// insert_every-th arrival is a single-record insert, the rest are verified
// queries against the preloaded index.
//
// Reported per step: served_per_second (gated by tools/bench_compare.py
// against bench/baselines/BENCH_serve_load.json; at sub-capacity offered
// rates it is arrival-bound and therefore stable run-to-run) plus
// p50/p99/p999 latency in micros and shed/error counts (ungated: tails on
// a shared single-core box are noise-dominated).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "obs/registry.h"
#include "obs/request_log.h"
#include "obs/spans.h"
#include "serve/http_client.h"
#include "serve/server.h"
#include "serve/service.h"

namespace sketchlink::bench {
namespace {

std::string RecordJson(uint64_t id) {
  const char* first = id % 2 == 0 ? "ALICE" : "BOB";
  return R"({"id":)" + std::to_string(id) + R"(,"fields":[")" + first +
         R"(","SMITH","RALEIGH","276)" + std::to_string(id % 100) +
         R"(","F","1980"]})";
}

struct StepResult {
  size_t offered_qps = 0;
  double elapsed_secs = 0;
  uint64_t served = 0;     // 2xx responses
  uint64_t shed_429 = 0;   // queue-full admission sheds
  uint64_t shed_503 = 0;   // deadline/drain sheds
  uint64_t errors = 0;     // transport failures + unexpected statuses
  double served_per_second = 0;
  double mean_micros = 0;
  double p50_micros = 0;
  double p99_micros = 0;
  double p999_micros = 0;
};

void Summarize(std::vector<uint64_t> micros, StepResult* step) {
  if (micros.empty()) return;
  uint64_t total = 0;
  for (uint64_t m : micros) total += m;
  step->mean_micros = static_cast<double>(total) / micros.size();
  const auto percentile = [&](double p) {
    const size_t rank = static_cast<size_t>(p * (micros.size() - 1));
    std::nth_element(micros.begin(), micros.begin() + rank, micros.end());
    return static_cast<double>(micros[rank]);
  };
  step->p50_micros = percentile(0.50);
  step->p99_micros = percentile(0.99);
  step->p999_micros = percentile(0.999);
}

/// Drives one offered-QPS step against the live server.
StepResult RunStep(uint16_t port, size_t qps, size_t seconds,
                   size_t connections, size_t insert_every,
                   uint64_t id_base) {
  StepResult step;
  step.offered_qps = qps;
  const size_t total_arrivals = qps * seconds;
  const auto interarrival =
      std::chrono::nanoseconds(1'000'000'000ull / qps);

  std::atomic<size_t> next_arrival{0};
  std::atomic<uint64_t> served{0}, shed_429{0}, shed_503{0}, errors{0};
  std::vector<std::vector<uint64_t>> latencies(connections);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      serve::ClientConnection conn("127.0.0.1", port);
      latencies[c].reserve(total_arrivals / connections + 1);
      for (;;) {
        const size_t i = next_arrival.fetch_add(1);
        if (i >= total_arrivals) break;
        const auto scheduled = start + interarrival * i;
        std::this_thread::sleep_until(scheduled);
        const uint64_t id = id_base + i;
        Result<serve::HttpResult> result =
            i % insert_every == 0
                ? conn.RoundTrip("POST", "/v1/indexes/bench/records",
                                 R"({"records":[)" + RecordJson(id) + "]}")
                : conn.RoundTrip("POST", "/v1/indexes/bench/query",
                                 R"({"record":)" + RecordJson(id) +
                                     R"(,"verify":true,"limit":5})");
        const auto done = std::chrono::steady_clock::now();
        if (!result.ok()) {
          ++errors;
          continue;
        }
        const int status = result.value().status;
        if (status == 200) {
          ++served;
          latencies[c].push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  done - scheduled)
                  .count()));
        } else if (status == 429) {
          ++shed_429;
        } else if (status == 503) {
          ++shed_503;
        } else {
          ++errors;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const auto end = std::chrono::steady_clock::now();

  step.elapsed_secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  step.served = served.load();
  step.shed_429 = shed_429.load();
  step.shed_503 = shed_503.load();
  step.errors = errors.load();
  step.served_per_second =
      step.elapsed_secs > 0
          ? static_cast<double>(step.served) / step.elapsed_secs
          : 0;
  std::vector<uint64_t> merged;
  for (auto& per_conn : latencies)
    merged.insert(merged.end(), per_conn.begin(), per_conn.end());
  Summarize(std::move(merged), &step);
  return step;
}

struct SweepConfig {
  size_t connections = 2;
  size_t seconds = 2;
  size_t qps0 = 40;
  size_t steps = 3;
  size_t insert_every = 8;
  size_t preload = 200;
};

/// One full sweep against a fresh service + server. `observe` wires the
/// complete request-scoped observability stack — metric registry (server
/// counters, SLO gauges, per-tenant labeled families), tracer (default
/// 1-in-64 head sampling), and an unsampled structured request log — so the
/// observed rows measure the end-to-end cost an instrumented deployment
/// actually pays on the request path.
bool RunSweep(bool observe, const SweepConfig& config,
              std::vector<StepResult>* out) {
  ScratchDir scratch(observe ? "serve_load_observed" : "serve_load");

  obs::MetricRegistry registry;
  obs::Tracer tracer;  // default options: 1-in-64 head sampling
  obs::RequestLog::Options log_options;
  log_options.path = scratch.path() + "/requests.log";
  log_options.sample_period = 1;  // log every request: the worst case
  std::unique_ptr<obs::RequestLog> request_log;
  std::vector<obs::Registration> obs_regs;

  serve::LinkageService::Options service_options;
  service_options.scratch_dir = scratch.path() + "/indexes";
  if (observe) service_options.registry = &registry;
  serve::LinkageService service(service_options);

  serve::Server::Options server_options;
  server_options.num_workers = 2;
  server_options.max_queue = 128;
  if (observe) {
    request_log = std::make_unique<obs::RequestLog>(log_options);
    obs_regs = request_log->RegisterMetrics(&registry);
    server_options.registry = &registry;
    server_options.tracer = &tracer;
    server_options.request_log = request_log.get();
    server_options.shed_observer = [&service](std::string_view index,
                                              std::string_view reason) {
      service.ObserveShed(index, reason);
    };
  }
  serve::Server server(server_options);
  service.RegisterRoutes(&server);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 std::string(started.message()).c_str());
    return false;
  }

  // One index for the whole sweep, preloaded so queries do real candidate
  // retrieval + verification work.
  {
    serve::ClientConnection conn("127.0.0.1", server.port());
    auto created =
        conn.RoundTrip("POST", "/v1/indexes/bench",
                       R"({"threshold":0.8,"mu":256,"stripes":4})");
    if (!created.ok() || created.value().status != 201) {
      std::fprintf(stderr, "index create failed\n");
      return false;
    }
    for (size_t i = 0; i < config.preload; i += 50) {
      std::string batch = R"({"records":[)";
      for (size_t j = i; j < std::min(i + 50, config.preload); ++j) {
        if (j > i) batch += ",";
        batch += RecordJson(j);
      }
      batch += "]}";
      auto inserted =
          conn.RoundTrip("POST", "/v1/indexes/bench/records", batch);
      if (!inserted.ok() || inserted.value().status != 200) {
        std::fprintf(stderr, "preload failed\n");
        return false;
      }
    }
  }

  uint64_t id_base = observe ? 500'000'000 : 1'000'000;
  size_t qps = config.qps0;
  for (size_t s = 0; s < config.steps; ++s, qps *= 2) {
    const StepResult step =
        RunStep(server.port(), qps, config.seconds, config.connections,
                config.insert_every, id_base);
    id_base += 1'000'000;
    std::printf(
        "%10zu%s %11.1f %10.1f %10.1f %10.1f %10.1f %6llu %6llu %6llu\n",
        step.offered_qps, observe ? "*" : " ", step.served_per_second,
        step.mean_micros, step.p50_micros, step.p99_micros, step.p999_micros,
        static_cast<unsigned long long>(step.shed_429),
        static_cast<unsigned long long>(step.shed_503),
        static_cast<unsigned long long>(step.errors));
    out->push_back(step);
  }

  const serve::Server::Stats stats = server.stats();
  std::printf("server%s: executed=%llu shed_queue_full=%llu "
              "shed_deadline=%llu 5xx=%llu",
              observe ? " (observed)" : "",
              static_cast<unsigned long long>(stats.executed),
              static_cast<unsigned long long>(stats.shed_queue_full),
              static_cast<unsigned long long>(stats.shed_deadline),
              static_cast<unsigned long long>(stats.responses_5xx));
  if (observe) {
    std::printf(" log_lines=%llu log_dropped=%llu",
                static_cast<unsigned long long>(request_log->lines_written()),
                static_cast<unsigned long long>(request_log->entries_dropped()));
  }
  std::printf("\n\n");
  server.Shutdown();
  return true;
}

int Main(int argc, char** argv) {
  SweepConfig config;
  const Flags flags(argc, argv,
                    {{"--connections", "N"}, {"--seconds", "N"},
                     {"--qps0", "N"}, {"--steps", "N"},
                     {"--insert-every", "N"}, {"--preload", "N"}});
  config.connections = flags.Size("--connections", 2);
  config.seconds = flags.Size("--seconds", 2);
  config.qps0 = flags.Size("--qps0", 40);
  config.steps = flags.Size("--steps", 3);
  config.insert_every = flags.Size("--insert-every", 8);
  config.preload = flags.Size("--preload", 200);

  Banner("serve_load",
         "Open-loop QPS sweep against the serving plane: latency is "
         "measured from each request's scheduled arrival, so server lag "
         "surfaces as tail latency rather than reduced offered load. Each "
         "step runs twice: bare, then (*) with the full observability "
         "stack wired (registry, per-tenant metric families, tracing, "
         "SLO gauges, unsampled request log).");

  std::printf("%10s %12s %10s %10s %10s %10s %6s %6s %6s\n", "offered",
              "served/s", "mean_us", "p50_us", "p99_us", "p999_us", "429",
              "503", "err");
  std::vector<StepResult> plain;
  std::vector<StepResult> observed;
  if (!RunSweep(/*observe=*/false, config, &plain)) return 1;
  if (!RunSweep(/*observe=*/true, config, &observed)) return 1;

  BenchJsonWriter json("serve_load", config.connections);
  const auto add_row = [&json](const StepResult& step, const char* suffix) {
    JsonFields& row = json.AddResult();
    row.Add("label", "qps_" + std::to_string(step.offered_qps) + suffix);
    row.Add("offered_qps", static_cast<uint64_t>(step.offered_qps));
    row.Add("elapsed_secs", step.elapsed_secs);
    row.Add("served", step.served);
    row.Add("served_per_second", step.served_per_second);
    row.Add("mean_micros", step.mean_micros);
    row.Add("p50_micros", step.p50_micros);
    row.Add("p99_micros", step.p99_micros);
    row.Add("p999_micros", step.p999_micros);
    row.Add("shed_429", step.shed_429);
    row.Add("shed_503", step.shed_503);
    row.Add("errors", step.errors);
  };
  for (const StepResult& step : plain) add_row(step, "");
  for (const StepResult& step : observed) add_row(step, "_observed");

  // Headline overhead: mean and p50 latency ratio across matched steps,
  // reported (and committed to DESIGN.md §13) but not gated — sub-capacity
  // served/s is arrival-bound, so the gated throughput rows stay stable
  // while latency carries the instrumentation cost.
  double mean_overhead = 0;
  double p50_overhead = 0;
  size_t matched = 0;
  for (size_t i = 0; i < plain.size() && i < observed.size(); ++i) {
    if (plain[i].mean_micros <= 0 || plain[i].p50_micros <= 0) continue;
    mean_overhead += (observed[i].mean_micros / plain[i].mean_micros - 1.0);
    p50_overhead += (observed[i].p50_micros / plain[i].p50_micros - 1.0);
    ++matched;
  }
  if (matched > 0) {
    mean_overhead = mean_overhead / matched * 100.0;
    p50_overhead = p50_overhead / matched * 100.0;
    std::printf("observability overhead: mean %+.1f%%, p50 %+.1f%% "
                "(across %zu step(s))\n",
                mean_overhead, p50_overhead, matched);
    JsonFields& row = json.AddResult();
    row.Add("label", "obs_overhead");
    row.Add("observed_mean_overhead_percent", mean_overhead);
    row.Add("observed_p50_overhead_percent", p50_overhead);
  }

  return json.Finish() ? 0 : 1;
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  return sketchlink::bench::Main(argc, argv);
}
