#include "serve/server.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "obs/export.h"
#include "obs/spans.h"
#include "obs/trace_propagation.h"

namespace sketchlink::serve {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> segments;
  size_t start = 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    segments.emplace_back(path.substr(start, end - start));
    start = end;
  }
  return segments;
}

obs::HttpResponse JsonError(int status, std::string_view message) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":\"";
  response.body += message;
  response.body += "\"}\n";
  return response;
}

}  // namespace

std::string_view Server::Request::Param(std::string_view name) const {
  for (const auto& [key, value] : params) {
    if (key == name) return std::string_view(value);
  }
  return {};
}

Server::Server(const Options& options)
    : options_(options), slo_(options.slo) {}

Server::~Server() { Shutdown(); }

void Server::AddRoute(std::string method, std::string pattern,
                      Handler handler) {
  Route route;
  route.method = std::move(method);
  route.segments = SplitPath(pattern);
  route.handler = std::move(handler);
  routes_.push_back(std::move(route));
}

const Server::Route* Server::MatchRoute(
    const std::string& method, const std::string& path,
    std::vector<std::pair<std::string, std::string>>* params,
    bool* path_known) const {
  *path_known = false;
  const std::vector<std::string> segments = SplitPath(path);
  for (const Route& route : routes_) {
    if (route.segments.size() != segments.size()) continue;
    std::vector<std::pair<std::string, std::string>> captured;
    bool match = true;
    for (size_t i = 0; i < segments.size(); ++i) {
      const std::string& pattern = route.segments[i];
      if (pattern.size() >= 2 && pattern.front() == '{' &&
          pattern.back() == '}') {
        if (segments[i].empty()) {
          match = false;
          break;
        }
        captured.emplace_back(pattern.substr(1, pattern.size() - 2),
                              segments[i]);
      } else if (pattern != segments[i]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    *path_known = true;
    if (route.method != method) continue;  // maybe another verb matches
    *params = std::move(captured);
    return &route;
  }
  return nullptr;
}

uint64_t Server::DeadlineFor(const obs::HttpRequest& http,
                             uint64_t now_ns) const {
  uint64_t budget_ms = options_.default_deadline_ms;
  const std::string_view header = http.Header("x-deadline-ms");
  if (!header.empty()) {
    char* end = nullptr;
    const std::string copy(header);
    const unsigned long long parsed = std::strtoull(copy.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      budget_ms = static_cast<uint64_t>(parsed);
    }
  }
  if (budget_ms > options_.max_deadline_ms) budget_ms = options_.max_deadline_ms;
  return now_ns + budget_ms * 1'000'000ULL;
}

Status Server::Start() {
  if (running()) return Status::FailedPrecondition("server already started");

  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  loop_ = std::make_unique<EventLoop>(
      options_.loop, [this](uint64_t conn_id, obs::HttpRequest&& http) {
        OnRequest(conn_id, std::move(http));
      });

  if (options_.registry != nullptr) {
    obs::Registry* registry = options_.registry;
    const auto id = [](std::string name, std::string help) {
      return obs::MetricId(std::move(name), std::move(help),
                           {{"plane", "serve"}});
    };
    registrations_.push_back(registry->AddCounter(
        id("serve_requests_admitted_total", "requests admitted to the queue"),
        &admitted_));
    registrations_.push_back(registry->AddCounter(
        id("serve_requests_executed_total", "requests whose handler ran"),
        &executed_));
    registrations_.push_back(registry->AddCounter(
        id("serve_shed_queue_full_total", "requests rejected 429 (queue full)"),
        &shed_queue_full_));
    registrations_.push_back(registry->AddCounter(
        id("serve_shed_deadline_total",
           "requests shed 503 (deadline expired before execution)"),
        &shed_deadline_));
    registrations_.push_back(registry->AddCounter(
        id("serve_shed_draining_total", "requests rejected 503 (draining)"),
        &shed_draining_));
    registrations_.push_back(registry->AddCounter(
        id("serve_responses_2xx_total", "2xx responses"), &responses_2xx_));
    registrations_.push_back(registry->AddCounter(
        id("serve_responses_4xx_total", "4xx responses"), &responses_4xx_));
    registrations_.push_back(registry->AddCounter(
        id("serve_responses_5xx_total", "5xx responses"), &responses_5xx_));
    registrations_.push_back(registry->AddCallbackGauge(
        id("serve_queue_depth", "admitted requests not yet executing"),
        [this] { return static_cast<double>(queue_depth()); }));
    registrations_.push_back(registry->AddCallbackGauge(
        id("serve_open_connections", "open client connections"), [this] {
          return loop_ != nullptr
                     ? static_cast<double>(loop_->num_connections())
                     : 0.0;
        }));
    registrations_.push_back(registry->AddHistogramFn(
        id("serve_request_latency_nanos",
           "admission-to-response latency of executed requests"),
        [this] { return request_latency_nanos_.Snapshot(); }));
    for (obs::Registration& reg :
         slo_.RegisterMetrics(registry, {{"plane", "serve"}})) {
      registrations_.push_back(std::move(reg));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = false;
    stopping_ = false;
  }

  SKETCHLINK_RETURN_IF_ERROR(loop_->Start());

  // Turn the batch pool into resident request executors: one dispatcher
  // thread submits a single RunShards batch whose shards are the worker
  // loops; the batch (and thus the dispatcher) returns at shutdown.
  dispatcher_ = std::thread([this] {
    pool_->RunShards(pool_->num_threads(), [this](size_t) { WorkerLoop(); });
  });
  return Status::OK();
}

void Server::Shutdown() {
  if (loop_ == nullptr && !dispatcher_.joinable()) return;

  if (loop_ != nullptr) loop_->StopAccepting();
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (loop_ != nullptr) loop_->Stop();
  loop_.reset();
  pool_.reset();
  registrations_.clear();
}

Server::Stats Server::stats() const {
  Stats stats;
  stats.admitted = admitted_.value();
  stats.executed = executed_.value();
  stats.shed_queue_full = shed_queue_full_.value();
  stats.shed_deadline = shed_deadline_.value();
  stats.shed_draining = shed_draining_.value();
  stats.responses_2xx = responses_2xx_.value();
  stats.responses_4xx = responses_4xx_.value();
  stats.responses_5xx = responses_5xx_.value();
  return stats;
}

size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Server::Account(const Request& request, int status,
                     std::string_view shed_reason, uint64_t queue_nanos,
                     uint64_t handler_nanos, uint64_t trace_id,
                     uint64_t remote_trace_id, uint64_t response_bytes) {
  // Availability budget: 5xx and sheds burn it (a 429 queue-full shed is
  // our overload, not the client's mistake); plain 4xx does not.
  slo_.RecordOutcome(status >= 500 || !shed_reason.empty());
  if (!shed_reason.empty() && options_.shed_observer) {
    options_.shed_observer(request.Param("name"), shed_reason);
  }
  if (options_.request_log != nullptr) {
    obs::RequestLogEntry entry;
    entry.method = request.http.method;
    entry.path = request.http.path;
    entry.index = std::string(request.Param("name"));
    entry.status = status;
    entry.shed_reason = std::string(shed_reason);
    entry.trace_id = trace_id;
    entry.remote_trace_id = remote_trace_id;
    entry.queue_nanos = queue_nanos;
    entry.handler_nanos = handler_nanos;
    entry.request_bytes = request.http.body.size();
    entry.response_bytes = response_bytes;
    options_.request_log->Record(std::move(entry));
  }
}

std::string Server::StatuszText() {
  const Stats s = stats();
  const obs::SloTracker::Snapshot slo = slo_.TakeSnapshot();
  char line[160];
  std::string out = "serve plane\n";
  out += "queue_depth: " + std::to_string(queue_depth()) + "\n";
  out += "admitted: " + std::to_string(s.admitted) + "\n";
  out += "executed: " + std::to_string(s.executed) + "\n";
  std::snprintf(line, sizeof(line),
                "shed: queue_full %llu, deadline %llu, draining %llu\n",
                static_cast<unsigned long long>(s.shed_queue_full),
                static_cast<unsigned long long>(s.shed_deadline),
                static_cast<unsigned long long>(s.shed_draining));
  out += line;
  std::snprintf(line, sizeof(line),
                "responses: 2xx %llu, 4xx %llu, 5xx %llu\n",
                static_cast<unsigned long long>(s.responses_2xx),
                static_cast<unsigned long long>(s.responses_4xx),
                static_cast<unsigned long long>(s.responses_5xx));
  out += line;
  std::snprintf(line, sizeof(line),
                "slo_availability: %.6f over %llu requests (burn %.2f, "
                "objective %.4f)\n",
                slo.availability,
                static_cast<unsigned long long>(slo.window_total),
                slo.availability_burn,
                slo_.options().availability_objective);
  out += line;
  std::snprintf(line, sizeof(line),
                "slo_latency: %.6f under %llu ms over %llu served (burn "
                "%.2f, objective %.4f)\n",
                slo.latency_ratio,
                static_cast<unsigned long long>(
                    slo_.options().latency_threshold_nanos / 1'000'000),
                static_cast<unsigned long long>(slo.window_served),
                slo.latency_burn, slo_.options().latency_objective);
  out += line;
  return out;
}

void Server::Respond(uint64_t conn_id, obs::HttpResponse response) {
  if (response.status >= 500) {
    responses_5xx_.Inc();
  } else if (response.status >= 400) {
    responses_4xx_.Inc();
  } else {
    responses_2xx_.Inc();
  }
  loop_->SendResponse(conn_id, std::move(response));
}

void Server::OnRequest(uint64_t conn_id, obs::HttpRequest&& http) {
  const uint64_t now_ns = NowNanos();

  Work work;
  work.conn_id = conn_id;
  obs::ParseTraceparent(http.Header(obs::kTraceparentHeader), &work.remote);

  bool draining;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining = draining_;
  }
  if (draining) {
    shed_draining_.Inc();
    if (options_.tracer != nullptr) {
      auto scope = options_.tracer->StartTrace("serve", "shed_draining");
      scope.MarkError();
    }
    work.request.http = std::move(http);
    obs::HttpResponse response = JsonError(503, "server draining");
    Account(work.request, 503, "draining", 0, 0, 0, work.remote.trace_id,
            response.body.size());
    Respond(conn_id, std::move(response));
    return;
  }

  bool path_known = false;
  work.route = MatchRoute(http.method, http.path, &work.request.params,
                          &path_known);
  work.deadline_ns = DeadlineFor(http, now_ns);
  work.enqueued_ns = now_ns;
  work.request.http = std::move(http);
  if (work.route == nullptr) {
    obs::HttpResponse response =
        path_known ? JsonError(405, "method not allowed")
                   : JsonError(404, "not found");
    Account(work.request, response.status, "", 0, 0, 0, work.remote.trace_id,
            response.body.size());
    Respond(conn_id, std::move(response));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= options_.max_queue) {
      // Shed on the loop thread: the rejection never occupies a worker.
      shed_queue_full_.Inc();
      if (options_.tracer != nullptr) {
        auto scope = options_.tracer->StartTrace("serve", "shed_queue");
        scope.MarkError();
      }
      obs::HttpResponse response = JsonError(429, "queue full");
      response.headers.emplace_back(
          "Retry-After", std::to_string(options_.retry_after_seconds));
      Account(work.request, 429, "queue_full", 0, 0, 0, work.remote.trace_id,
              response.body.size());
      // Count outside Respond's critical path but inside the lock is fine:
      // Respond only touches counters and the loop's command queue.
      responses_4xx_.Inc();
      loop_->SendResponse(conn_id, std::move(response));
      return;
    }
    admitted_.Inc();
    queue_.push_back(std::move(work));
  }
  work_cv_.notify_one();
}

void Server::WorkerLoop() {
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      work = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    const uint64_t now_ns = NowNanos();
    obs::HttpResponse response;
    if (now_ns > work.deadline_ns) {
      // Expired while queued: shed without executing — under overload the
      // server stops burning workers on answers nobody is waiting for.
      shed_deadline_.Inc();
      if (options_.tracer != nullptr) {
        auto scope = options_.tracer->StartTrace("serve", "shed_deadline");
        scope.MarkError();
      }
      response = JsonError(503, "deadline exceeded before execution");
      Account(work.request, 503, "deadline", now_ns - work.enqueued_ns, 0, 0,
              work.remote.trace_id, response.body.size());
    } else {
      executed_.Inc();
      obs::TraceScope scope;
      {
        // A traceparent header makes this root adopt the client's trace
        // identity (and, when the client is sampling, bypass head
        // sampling) — the hand-off is the consume-once pending slot.
        obs::ScopedRemoteParent remote_parent(work.remote);
        if (options_.tracer != nullptr) {
          // The ambient context makes engine/sketch/kv spans created inside
          // the handler parent to this request automatically.
          scope = options_.tracer->StartTrace("serve", "request");
        }
      }
      try {
        response = work.route->handler(work.request);
      } catch (const std::exception& e) {
        response = JsonError(500, "internal error");
      }
      if (response.status >= 500) scope.MarkError();
      const uint64_t done_ns = NowNanos();
      request_latency_nanos_.Record(done_ns - work.enqueued_ns);
      slo_.RecordLatency(done_ns - work.enqueued_ns);
      Account(work.request, response.status, "", now_ns - work.enqueued_ns,
              done_ns - now_ns, scope.trace_id(), work.remote.trace_id,
              response.body.size());
    }
    Respond(work.conn_id, std::move(response));

    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

void MountTelemetryRoutes(Server* server, obs::Registry* registry,
                          obs::Tracer* tracer,
                          std::function<std::string()> statusz_extra) {
  for (auto& [path, handler] :
       obs::TelemetryHandlers(registry, tracer, std::move(statusz_extra))) {
    server->AddRoute("GET", std::move(path),
                     [h = std::move(handler)](const Server::Request& request) {
                       return h(request.http);
                     });
  }
}

}  // namespace sketchlink::serve
