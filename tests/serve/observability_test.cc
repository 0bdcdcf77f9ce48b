// End-to-end request-scoped observability: traceparent adoption over a real
// socket, client-side auto-injection, structured request logging, and the
// per-tenant labeled-metric lifecycle under concurrent scrapes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/request_log.h"
#include "obs/spans.h"
#include "obs/trace_propagation.h"
#include "serve/http_client.h"
#include "serve/server.h"
#include "serve/service.h"

namespace sketchlink::serve {
namespace {

// Unique per-test scratch root: these tests run as parallel ctest entries,
// so sharing a directory across tests is a correctness bug, not a style one.
std::string ScratchDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return (std::filesystem::temp_directory_path() /
          (std::string("sketchlink_obs_") + info->test_suite_name() + "_" +
           info->name()))
      .string();
}

obs::Tracer::Options KeepEverything() {
  obs::Tracer::Options options;
  options.sample_period = 1;
  options.keep_period = 1;
  return options;
}

std::unique_ptr<Server> PingServer(Server::Options options) {
  auto server = std::make_unique<Server>(options);
  server->AddRoute("GET", "/ping", [](const Server::Request&) {
    obs::HttpResponse response;
    response.body = "pong";
    return response;
  });
  return server;
}

TEST(ServeObservabilityTest, ServerAdoptsTraceparentFromTheWire) {
  obs::Tracer tracer(KeepEverything());
  Server::Options options;
  options.num_workers = 2;
  options.tracer = &tracer;
  std::unique_ptr<Server> server = PingServer(options);
  ASSERT_TRUE(server->Start().ok());

  const uint64_t client_trace = 0x4bf92f3577b34da6ull;
  const uint64_t client_span = 0x00f067aa0ba902b7ull;
  auto traced = Fetch(
      "127.0.0.1", server->port(), "GET", "/ping", "",
      {{std::string(obs::kTraceparentHeader),
        obs::FormatTraceparent(client_trace, client_span, /*sampled=*/true)}});
  ASSERT_TRUE(traced.ok()) << traced.status().message();
  EXPECT_EQ(traced.value().status, 200);

  auto untraced = Fetch("127.0.0.1", server->port(), "GET", "/ping");
  ASSERT_TRUE(untraced.ok());
  server->Shutdown();

  // Exactly one server root carries the client identity; the header-less
  // request's root is a local one.
  const std::vector<obs::SpanRecord> spans = tracer.buffer().Snapshot();
  size_t adopted = 0;
  size_t local = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id != 0 || span.name != "request") continue;
    EXPECT_EQ(span.category, "serve");
    if (span.remote_trace_id != 0) {
      ++adopted;
      EXPECT_EQ(span.remote_trace_id, client_trace);
      EXPECT_EQ(span.remote_parent_span_id, client_span);
    } else {
      ++local;
    }
  }
  EXPECT_EQ(adopted, 1u);
  EXPECT_EQ(local, 1u);
}

TEST(ServeObservabilityTest, SampledTraceparentForcesServerAdmission) {
  // Head sampling effectively off: only the warm-up tick and the forced
  // remote admission may record traces.
  obs::Tracer::Options traceropt;
  traceropt.sample_period = 1000000;
  traceropt.keep_period = 1;
  obs::Tracer tracer(traceropt);
  Server::Options options;
  options.num_workers = 1;  // one worker: one deterministic admission tick
  options.tracer = &tracer;
  std::unique_ptr<Server> server = PingServer(options);
  ASSERT_TRUE(server->Start().ok());

  // Tick 0 on the worker thread always admits; burn it.
  ASSERT_TRUE(Fetch("127.0.0.1", server->port(), "GET", "/ping").ok());
  const size_t after_warmup = tracer.buffer().Snapshot().size();

  // An ordinary request is not admitted...
  ASSERT_TRUE(Fetch("127.0.0.1", server->port(), "GET", "/ping").ok());
  EXPECT_EQ(tracer.buffer().Snapshot().size(), after_warmup);

  // ...but a sampled remote parent must be: the client is collecting its
  // half of the trace, so the server half has to exist.
  auto forced = Fetch("127.0.0.1", server->port(), "GET", "/ping", "",
                      {{std::string(obs::kTraceparentHeader),
                        obs::FormatTraceparent(0xabc, 0xdef, true)}});
  ASSERT_TRUE(forced.ok());
  server->Shutdown();

  const std::vector<obs::SpanRecord> spans = tracer.buffer().Snapshot();
  size_t adopted = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id == 0 && span.remote_trace_id == 0xabc) ++adopted;
  }
  EXPECT_EQ(adopted, 1u);
}

TEST(ServeObservabilityTest, ClientConnectionInjectsAmbientSpanContext) {
  obs::Tracer server_tracer(KeepEverything());
  Server::Options options;
  options.num_workers = 2;
  options.tracer = &server_tracer;
  std::unique_ptr<Server> server = PingServer(options);
  ASSERT_TRUE(server->Start().ok());

  // The client runs its own tracer; a request made inside one of its spans
  // must carry that span's context with no explicit header plumbing.
  obs::Tracer client_tracer(KeepEverything());
  uint64_t client_trace = 0;
  {
    obs::TraceScope scope = client_tracer.StartTrace("client", "call");
    ASSERT_TRUE(scope.active());
    client_trace = scope.trace_id();
    ClientConnection conn("127.0.0.1", server->port());
    auto result = conn.RoundTrip("GET", "/ping");
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().status, 200);
  }
  server->Shutdown();

  const std::vector<obs::SpanRecord> spans = server_tracer.buffer().Snapshot();
  size_t adopted = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id == 0 && span.remote_trace_id == client_trace) {
      ++adopted;
      EXPECT_NE(span.remote_parent_span_id, 0u);
    }
  }
  EXPECT_EQ(adopted, 1u) << "client → server trace chain is broken";
}

TEST(ServeObservabilityTest, RequestLogRecordsServedAndUnroutedRequests) {
  const std::string dir = ScratchDir();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/requests.log";

  obs::RequestLog::Options log_options;
  log_options.path = log_path;
  auto log = std::make_unique<obs::RequestLog>(log_options);

  Server::Options options;
  options.num_workers = 2;
  options.request_log = log.get();
  std::unique_ptr<Server> server = PingServer(options);
  ASSERT_TRUE(server->Start().ok());

  ASSERT_TRUE(Fetch("127.0.0.1", server->port(), "GET", "/ping").ok());
  ASSERT_TRUE(Fetch("127.0.0.1", server->port(), "GET", "/nowhere").ok());
  server->Shutdown();
  log->Flush();

  std::ifstream in(log_path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);

  bool saw_ok = false;
  bool saw_404 = false;
  for (const std::string& l : lines) {
    if (l.find("\"path\": \"/ping\"") != std::string::npos) {
      saw_ok = true;
      EXPECT_NE(l.find("\"status\": 200"), std::string::npos) << l;
      EXPECT_NE(l.find("\"method\": \"GET\""), std::string::npos) << l;
      EXPECT_NE(l.find("\"handler_nanos\": "), std::string::npos) << l;
      EXPECT_NE(l.find("\"response_bytes\": 4"), std::string::npos) << l;
    }
    if (l.find("\"path\": \"/nowhere\"") != std::string::npos) {
      saw_404 = true;
      EXPECT_NE(l.find("\"status\": 404"), std::string::npos) << l;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_404);
  log.reset();
  std::filesystem::remove_all(dir);
}

// --- Satellite: labeled-metric lifecycle under concurrent scrapes --------

Server::Request MakeRequest(std::string name, std::string body = "") {
  Server::Request request;
  if (!name.empty()) request.params.emplace_back("name", std::move(name));
  request.http.body = std::move(body);
  return request;
}

size_t CountTenantSeries(const obs::RegistrySnapshot& snap,
                         const std::string& index) {
  size_t count = 0;
  for (const obs::MetricSnapshot& metric : snap.metrics) {
    if (metric.id.name.rfind("serve_index_", 0) != 0) continue;
    for (const auto& [key, value] : metric.id.labels) {
      if (key == "index" && value == index) {
        ++count;
        break;
      }
    }
  }
  return count;
}

size_t CountFamilySeries(const obs::RegistrySnapshot& snap) {
  size_t count = 0;
  for (const obs::MetricSnapshot& metric : snap.metrics) {
    if (metric.id.name.rfind("serve_index_", 0) == 0) ++count;
  }
  return count;
}

class LabeledMetricLifecycleTest : public ::testing::TestWithParam<int> {};

TEST_P(LabeledMetricLifecycleTest, CreateQueryDeleteUnderConcurrentScrape) {
  const int num_scrapers = GetParam();
  const std::string scratch = ScratchDir();
  std::filesystem::remove_all(scratch);

  obs::MetricRegistry registry;
  LinkageService::Options options;
  options.scratch_dir = scratch;
  options.max_indexes = 4;
  options.registry = &registry;
  auto service = std::make_unique<LinkageService>(options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < num_scrapers; ++t) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        // A scrape must never observe a dangling registration: every label
        // and name closure must still be readable mid-DELETE.
        const obs::RegistrySnapshot snap = registry.TakeSnapshot();
        for (const obs::MetricSnapshot& metric : snap.metrics) {
          ASSERT_FALSE(metric.id.name.empty());
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Several generations of the same tenant churn while scrapers run: the
  // series must exist while the tenant does and vanish with it, with no
  // cardinality creep across generations.
  size_t baseline = CountFamilySeries(registry.TakeSnapshot());
  for (int round = 0; round < 6; ++round) {
    const std::string name = "tenant" + std::to_string(round % 2);
    ASSERT_EQ(service->CreateIndex(MakeRequest(name, "{}")).status, 201);
    ASSERT_EQ(
        service
            ->InsertRecords(MakeRequest(
                name,
                R"({"records":[{"id":1,
                     "fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]}]})"))
            .status,
        200);
    ASSERT_EQ(service
                  ->Query(MakeRequest(
                      name,
                      R"({"record":{"id":9,
                           "fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]}})"))
                  .status,
              200);

    const obs::RegistrySnapshot live = registry.TakeSnapshot();
    EXPECT_GT(CountTenantSeries(live, name), 0u)
        << name << " series missing while the tenant is live";

    ASSERT_EQ(service->DeleteIndex(MakeRequest(name)).status, 200);
    const obs::RegistrySnapshot gone = registry.TakeSnapshot();
    EXPECT_EQ(CountTenantSeries(gone, name), 0u)
        << name << " series must vanish with the tenant";
    EXPECT_EQ(CountFamilySeries(gone), baseline)
        << "per-tenant cardinality grew across create/delete generations";
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : scrapers) thread.join();
  EXPECT_GT(scrapes.load(), 0u);

  // Service teardown with scrapes done: everything deregisters cleanly.
  service.reset();
  EXPECT_EQ(CountFamilySeries(registry.TakeSnapshot()), 0u);
  std::filesystem::remove_all(scratch);
}

INSTANTIATE_TEST_SUITE_P(ScraperThreads, LabeledMetricLifecycleTest,
                         ::testing::Values(1, 2, 8));

uint64_t TenantLatencySumNanos(obs::MetricRegistry* registry,
                               const std::string& index) {
  const obs::RegistrySnapshot snap = registry->TakeSnapshot();
  for (const obs::MetricSnapshot& metric : snap.metrics) {
    if (metric.id.name != "serve_index_request_latency_nanos") continue;
    for (const auto& [key, value] : metric.id.labels) {
      if (key == "index" && value == index) return metric.histogram.sum;
    }
  }
  return 0;
}

TEST(ServeObservabilityTest, TenantLatencyCoversTheResponseBody) {
  // serve_index_request_latency_nanos is the handler's latency, so the
  // response body it returns must be built inside the timed span. A query
  // returning thousands of matches makes body construction a large share
  // of the call: the recorded latency must then cover nearly all of the
  // call's wall time. The best of several calls is taken so a preemption
  // between the handler's last clock read and its return cannot fail it.
  const std::string scratch = ScratchDir();
  std::filesystem::remove_all(scratch);
  obs::MetricRegistry registry;
  LinkageService::Options options;
  options.scratch_dir = scratch;
  options.registry = &registry;
  LinkageService service(options);
  ASSERT_EQ(service.CreateIndex(MakeRequest("wide", "{}")).status, 201);
  for (int batch = 0; batch < 3; ++batch) {
    std::string body = R"({"records":[)";
    for (int i = 0; i < 1000; ++i) {
      if (i != 0) body += ',';
      body += R"({"id":)" + std::to_string(batch * 1000 + i + 1) +
              R"(,"fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]})";
    }
    body += "]}";
    ASSERT_EQ(service.InsertRecords(MakeRequest("wide", body)).status, 200);
  }
  const Server::Request query = MakeRequest(
      "wide",
      R"({"record":{"fields":["ALICE","SMITH","RALEIGH","27601","F","1980"]},
          "verify":false})");
  double best_share = 0;
  for (int call = 0; call < 8; ++call) {
    const uint64_t recorded_before = TenantLatencySumNanos(&registry, "wide");
    const uint64_t start = obs::SteadyNowNanos();
    const obs::HttpResponse response = service.Query(query);
    const uint64_t wall = obs::SteadyNowNanos() - start;
    ASSERT_EQ(response.status, 200);
    ASSERT_GT(response.body.size(), 3000u * 10) << "too few matches";
    const uint64_t recorded =
        TenantLatencySumNanos(&registry, "wide") - recorded_before;
    best_share = std::max(best_share, static_cast<double>(recorded) / wall);
  }
  EXPECT_GT(best_share, 0.9)
      << "the per-tenant latency leaves out part of the handler";
  std::filesystem::remove_all(scratch);
}

TEST(ServeObservabilityTest, TwoLiveTenantsExportDisjointSeries) {
  const std::string scratch = ScratchDir();
  std::filesystem::remove_all(scratch);
  obs::MetricRegistry registry;
  LinkageService::Options options;
  options.scratch_dir = scratch;
  options.registry = &registry;
  LinkageService service(options);

  ASSERT_EQ(service.CreateIndex(MakeRequest("alpha", "{}")).status, 201);
  ASSERT_EQ(service.CreateIndex(MakeRequest("beta", "{}")).status, 201);
  const obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_GT(CountTenantSeries(snap, "alpha"), 0u);
  EXPECT_GT(CountTenantSeries(snap, "beta"), 0u);

  ASSERT_EQ(service.DeleteIndex(MakeRequest("alpha")).status, 200);
  const obs::RegistrySnapshot after = registry.TakeSnapshot();
  EXPECT_EQ(CountTenantSeries(after, "alpha"), 0u);
  EXPECT_GT(CountTenantSeries(after, "beta"), 0u)
      << "deleting one tenant must not disturb another's series";
  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace sketchlink::serve
