#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/instruments.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "serve/http_client.h"

namespace sketchlink::serve {
namespace {

using std::chrono::milliseconds;

/// Connects to the server and sends `raw` bytes; returns the socket.
int SendRaw(uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  return fd;
}

/// Reads until the server closes `fd`, then closes it.
std::string ReadToClose(int fd) {
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Sends raw bytes and reads until the server closes the connection.
std::string RawRequest(uint16_t port, const std::string& raw) {
  return ReadToClose(SendRaw(port, raw));
}

obs::HttpResponse TextResponse(std::string body) {
  obs::HttpResponse response;
  response.body = std::move(body);
  return response;
}

TEST(ServerTest, RoutesWithParamsAndMethodSplit) {
  Server::Options options;
  options.num_workers = 2;
  Server server(options);
  server.AddRoute("GET", "/v1/items/{id}", [](const Server::Request& r) {
    obs::HttpResponse response;
    response.body = "item=" + std::string(r.Param("id"));
    return response;
  });
  server.AddRoute("POST", "/v1/items/{id}", [](const Server::Request& r) {
    obs::HttpResponse response;
    response.body = "posted " + r.http.body;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  auto get = Fetch("127.0.0.1", server.port(), "GET", "/v1/items/42");
  ASSERT_TRUE(get.ok()) << get.status().message();
  EXPECT_EQ(get.value().status, 200);
  EXPECT_EQ(get.value().body, "item=42");

  auto post =
      Fetch("127.0.0.1", server.port(), "POST", "/v1/items/42", "payload");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post.value().body, "posted payload");

  auto missing = Fetch("127.0.0.1", server.port(), "GET", "/v1/other");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  auto wrong_method =
      Fetch("127.0.0.1", server.port(), "DELETE", "/v1/items/42");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);

  // An empty {id} segment does not match the pattern.
  auto empty = Fetch("127.0.0.1", server.port(), "GET", "/v1/items/");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().status, 404);
}

TEST(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  Server::Options options;
  options.num_workers = 1;
  Server server(options);
  std::atomic<int> served{0};
  server.AddRoute("GET", "/count", [&](const Server::Request&) {
    obs::HttpResponse response;
    response.body = std::to_string(++served);
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  ClientConnection conn("127.0.0.1", server.port());
  for (int i = 1; i <= 5; ++i) {
    auto result = conn.RoundTrip("GET", "/count");
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().body, std::to_string(i));
  }
  EXPECT_TRUE(conn.connected());  // all five rode the same socket
}

TEST(ServerTest, PipelinedRequestsAllGetResponses) {
  Server::Options options;
  options.num_workers = 1;
  Server server(options);
  server.AddRoute("GET", "/a", [](const Server::Request&) {
    obs::HttpResponse response;
    response.body = "A";
    return response;
  });
  server.AddRoute("GET", "/b", [](const Server::Request&) {
    obs::HttpResponse response;
    response.body = "B";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // Two requests in one write; the second carries Connection: close so the
  // server ends the connection after answering both in order.
  const std::string response = RawRequest(
      server.port(),
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  const size_t first = response.find("\r\n\r\nA");
  const size_t second = response.find("\r\n\r\nB");
  EXPECT_NE(first, std::string::npos) << response;
  EXPECT_NE(second, std::string::npos) << response;
  EXPECT_LT(first, second);
}

TEST(ServerTest, QueueOverflowSheds429WithRetryAfter) {
  Server::Options options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.retry_after_seconds = 7;
  Server server(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  server.AddRoute("GET", "/slow", [&](const Server::Request&) {
    ++entered;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    obs::HttpResponse response;
    response.body = "done";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // First request occupies the only worker; once it is executing, the
  // second fills the queue. (Sent concurrently they could both be queued
  // before the worker wakes, and the second would be shed.)
  std::vector<std::thread> blocked;
  const auto expect_200 = [&] {
    auto result = Fetch("127.0.0.1", server.port(), "GET", "/slow", "", {},
                        /*timeout_ms=*/20'000);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.value().status, 200);
  };
  blocked.emplace_back(expect_200);
  while (entered.load() < 1) std::this_thread::sleep_for(milliseconds(1));
  blocked.emplace_back(expect_200);
  while (server.queue_depth() < 1) std::this_thread::sleep_for(milliseconds(1));

  // Queue is full: this one must be shed on the loop thread with 429 and
  // the advisory Retry-After, never reaching a worker.
  const std::string shed = RawRequest(
      server.port(), "GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(shed.rfind("HTTP/1.1 429 ", 0), 0u) << shed;
  EXPECT_NE(shed.find("Retry-After: 7\r\n"), std::string::npos) << shed;

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : blocked) t.join();

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.responses_4xx, 1u);
  EXPECT_EQ(stats.responses_2xx, 2u);
  EXPECT_EQ(entered.load(), 2);  // the shed request never ran
}

TEST(ServerTest, ExpiredDeadlineSheds503WithoutExecuting) {
  obs::Tracer::Options trace_everything;
  trace_everything.sample_period = 1;
  trace_everything.keep_period = 1;
  obs::Tracer tracer(trace_everything);

  Server::Options options;
  options.num_workers = 1;
  options.tracer = &tracer;
  Server server(options);

  std::atomic<int> fast_runs{0};
  server.AddRoute("GET", "/hold", [&](const Server::Request&) {
    std::this_thread::sleep_for(milliseconds(300));
    obs::HttpResponse response;
    response.body = "held";
    return response;
  });
  server.AddRoute("GET", "/fast", [&](const Server::Request&) {
    ++fast_runs;
    obs::HttpResponse response;
    response.body = "fast";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // Occupy the worker for 300ms, then queue a request whose 1ms deadline
  // will be long gone when the worker gets to it.
  std::thread holder([&] {
    auto result = Fetch("127.0.0.1", server.port(), "GET", "/hold");
    EXPECT_TRUE(result.ok());
  });
  std::this_thread::sleep_for(milliseconds(50));
  auto expired = Fetch("127.0.0.1", server.port(), "GET", "/fast", "",
                       {{"X-Deadline-Ms", "1"}}, /*timeout_ms=*/20'000);
  holder.join();
  ASSERT_TRUE(expired.ok()) << expired.status().message();
  EXPECT_EQ(expired.value().status, 503);
  EXPECT_EQ(fast_runs.load(), 0);  // handler never ran

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);

  // The shed is visible in the trace ring as an error-marked span.
  bool found = false;
  for (const auto& span : tracer.buffer().Snapshot()) {
    if (span.name == "shed_deadline" && span.error) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ServerTest, GracefulShutdownCompletesInFlightRequests) {
  Server::Options options;
  options.num_workers = 2;
  Server server(options);
  server.AddRoute("GET", "/slowish", [](const Server::Request&) {
    std::this_thread::sleep_for(milliseconds(200));
    obs::HttpResponse response;
    response.body = "finished";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::thread client([&] {
    auto result = Fetch("127.0.0.1", port, "GET", "/slowish", "", {},
                        /*timeout_ms=*/20'000);
    // The in-flight request completes normally even though Shutdown began
    // while its handler was sleeping.
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().status, 200);
    EXPECT_EQ(result.value().body, "finished");
  });
  std::this_thread::sleep_for(milliseconds(50));
  server.Shutdown();
  client.join();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().executed, 1u);
}

TEST(ServerTest, HandlerExceptionBecomes500) {
  Server::Options options;
  options.num_workers = 1;
  Server server(options);
  server.AddRoute("GET", "/boom", [](const Server::Request&) -> obs::HttpResponse {
    throw std::runtime_error("kaboom");
  });
  ASSERT_TRUE(server.Start().ok());
  auto result = Fetch("127.0.0.1", server.port(), "GET", "/boom");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().status, 500);
  EXPECT_EQ(server.stats().responses_5xx, 1u);
}

TEST(ServerTest, MalformedHttpIsRejectedByTheLoop) {
  Server::Options options;
  options.num_workers = 1;
  Server server(options);
  server.AddRoute("GET", "/x", [](const Server::Request&) {
    return obs::HttpResponse();
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(RawRequest(server.port(), "not http at all\r\n\r\n")
                .rfind("HTTP/1.1 400 ", 0),
            0u);
  // The server is still healthy afterwards.
  auto ok = Fetch("127.0.0.1", server.port(), "GET", "/x");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().status, 200);
}

TEST(ServerTest, RegistersServingMetrics) {
  obs::MetricRegistry registry;
  Server::Options options;
  options.num_workers = 1;
  options.registry = &registry;
  Server server(options);
  server.AddRoute("GET", "/x", [](const Server::Request&) {
    return obs::HttpResponse();
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(Fetch("127.0.0.1", server.port(), "GET", "/x").ok());

  EXPECT_NE(
      registry.TakeSnapshot().Find("serve_requests_admitted_total"),
      nullptr);
}

// --- HTTP conformance over raw sockets, telemetry routes mounted ---------

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    demo_.Add(5);
    registration_ = registry_.AddCounter(
        obs::MetricId("sketchlink_demo_total", "Demo", {{"instance", "t"}}),
        &demo_);
    Server::Options options;
    options.num_workers = 1;
    server_ = std::make_unique<Server>(options);
    MountTelemetryRoutes(server_.get(), &registry_, /*tracer=*/nullptr);
    server_->AddRoute("GET", "/hello", [](const Server::Request& request) {
      return TextResponse("hello " + request.http.query + "\n");
    });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  obs::MetricRegistry registry_;
  obs::Counter demo_;
  obs::Registration registration_;
  std::unique_ptr<Server> server_;
};

TEST_F(HttpServerTest, GoldenResponse) {
  const std::string response = RawRequest(
      server_->port(),
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response,
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            "Content-Length: 109\r\n"
            "Connection: close\r\n"
            "\r\n"
            "# HELP sketchlink_demo_total Demo\n"
            "# TYPE sketchlink_demo_total counter\n"
            "sketchlink_demo_total{instance=\"t\"} 5\n");
}

TEST_F(HttpServerTest, QueryStringIsSplitOffThePath) {
  const auto result = Fetch("127.0.0.1", server_->port(), "GET", "/hello?a=1");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(result->body, "hello a=1\n");
}

TEST_F(HttpServerTest, UnknownPathIs404) {
  const auto result = Fetch("127.0.0.1", server_->port(), "GET", "/nope");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->status, 404);
}

TEST_F(HttpServerTest, NonGetIs405) {
  for (const char* path : {"/hello", "/metrics", "/healthz"}) {
    const auto result = Fetch("127.0.0.1", server_->port(), "POST", path);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->status, 405) << path;
  }
}

TEST_F(HttpServerTest, MalformedRequestsGet400) {
  for (const char* raw : {"definitely not http\r\n\r\n", "GET\r\n\r\n",
                          // the target must start with '/'
                          "GET hello HTTP/1.1\r\n\r\n",
                          "GET /hello SPDY/3\r\n\r\n"}) {
    EXPECT_EQ(RawRequest(server_->port(), raw).rfind("HTTP/1.1 400 ", 0), 0u)
        << raw;
  }
}

TEST_F(HttpServerTest, ServesAfterAMalformedRequest) {
  RawRequest(server_->port(), "garbage\r\n\r\n");
  const auto result = Fetch("127.0.0.1", server_->port(), "GET", "/hello");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->status, 200);
}

// A client that connects and then stalls mid-request is answered 408 after
// the loop's io timeout; a well-behaved client is served meanwhile.
TEST(HttpServerStandaloneTest, StalledClientCannotWedgeTheServer) {
  Server::Options options;
  options.num_workers = 1;
  options.loop.io_timeout_ms = 300;
  Server server(options);
  server.AddRoute("GET", "/ping", [](const Server::Request&) {
    return TextResponse("pong\n");
  });
  ASSERT_TRUE(server.Start().ok());

  // Stall: open a connection, send half a request line, and go silent.
  const int stalled = SendRaw(server.port(), "GET /pi");

  const auto result = Fetch("127.0.0.1", server.port(), "GET", "/ping");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->body, "pong\n");

  // The stalled connection itself is answered 408 and closed, not left
  // half-open.
  const std::string response = ReadToClose(stalled);
  EXPECT_EQ(response.rfind("HTTP/1.1 408 ", 0), 0u) << response;
}

TEST(HttpServerStandaloneTest, PortInUseFailsToStart) {
  Server first((Server::Options()));
  ASSERT_TRUE(first.Start().ok());
  Server::Options clashing;
  clashing.loop.port = first.port();
  Server second(clashing);
  const Status status = second.Start();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();

  // reuse_address must not weaken the live-listener conflict: SO_REUSEADDR
  // only skips the TIME_WAIT linger, it cannot steal a bound port.
  clashing.loop.reuse_address = true;
  Server third(clashing);
  const Status reuse_status = third.Start();
  EXPECT_TRUE(reuse_status.IsIOError()) << reuse_status.ToString();
}

TEST(HttpServerStandaloneTest, ReuseAddressRebindsAfterStop) {
  // Restart-on-the-same-port scenario: the first incarnation served a
  // connection (so the port has residual TIME_WAIT state), then stopped.
  Server::Options options;
  options.loop.reuse_address = true;
  auto first = std::make_unique<Server>(options);
  first->AddRoute("GET", "/healthz", [](const Server::Request&) {
    return TextResponse("ok\n");
  });
  ASSERT_TRUE(first->Start().ok());
  const uint16_t port = first->port();
  ASSERT_TRUE(Fetch("127.0.0.1", port, "GET", "/healthz").ok());
  first->Shutdown();
  first.reset();

  Server::Options rebind = options;
  rebind.loop.port = port;
  Server second(rebind);
  const Status status = second.Start();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(second.port(), port);
}

TEST(HttpServerStandaloneTest, StopIsIdempotentAndRestartable) {
  Server server((Server::Options()));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // already running
  server.Shutdown();
  server.Shutdown();
  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
}

TEST(TelemetryHandlersTest, ServesMetricsTracesAndHealth) {
  obs::MetricRegistry registry;
  obs::Counter demo;
  demo.Add(5);
  auto reg = registry.AddCounter(
      obs::MetricId("sketchlink_demo_total", "Demo", {{"instance", "t"}}),
      &demo);

  obs::Tracer::Options trace_everything;
  trace_everything.sample_period = 1;
  trace_everything.keep_period = 1;
  obs::Tracer tracer(trace_everything);
  {
    obs::TraceScope trace = tracer.StartTrace("engine", "query");
    obs::Span span("sketch", "candidates");
  }

  Server::Options options;
  options.num_workers = 1;
  Server server(options);
  MountTelemetryRoutes(&server, &registry, &tracer,
                       [] { return std::string("tenant table\n"); });
  ASSERT_TRUE(server.Start().ok());
  const auto get = [&](const char* path) {
    const auto result = Fetch("127.0.0.1", server.port(), "GET", path);
    EXPECT_TRUE(result.ok()) << path << ": " << result.status().message();
    EXPECT_EQ(result.ok() ? result->status : 0, 200) << path;
    return result.ok() ? result->body : std::string();
  };

  std::string body = get("/healthz");
  EXPECT_EQ(body.rfind("ok\n", 0), 0u) << body;
  EXPECT_NE(body.find("build_id "), std::string::npos) << body;
  EXPECT_NE(body.find("uptime_seconds "), std::string::npos) << body;

  body = get("/metrics");
  EXPECT_NE(body.find("# TYPE sketchlink_demo_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("sketchlink_demo_total{instance=\"t\"} 5"),
            std::string::npos);

  body = get("/metrics.json");
  EXPECT_NE(body.find("\"name\": \"sketchlink_demo_total\""),
            std::string::npos);

  body = get("/traces");
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"candidates\""), std::string::npos);

  body = get("/statusz");
  EXPECT_NE(body.find("exported_metrics: 1\n"), std::string::npos) << body;
  EXPECT_NE(body.find("tenant table\n"), std::string::npos) << body;
}

}  // namespace
}  // namespace sketchlink::serve
