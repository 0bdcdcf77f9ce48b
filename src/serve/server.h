#ifndef SKETCHLINK_SERVE_SERVER_H_
#define SKETCHLINK_SERVE_SERVER_H_

// The service plane's HTTP server: an EventLoop front end multiplexing
// connections plus a worker pool executing handlers, glued by an
// admission-controlled queue. The load-shedding contract:
//
//   - The queue is bounded (Options::max_queue). A request arriving at a
//     full queue is answered 429 + Retry-After on the loop thread without
//     ever touching a worker — overload degrades to cheap rejections, not
//     to unbounded memory or latency.
//   - Every admitted request carries a deadline (Options::default
//     clamped-override via the X-Deadline-Ms header). A worker that
//     dequeues an already-expired request answers 503 without executing
//     the handler: when the system is behind, it stops doing work nobody
//     is waiting for anymore. Both shed paths are visible in /traces
//     (error-marked "shed_*" root spans) and in the registry counters.
//   - Shutdown() drains gracefully: stop accepting, let workers finish the
//     queue, then tear down. In-flight requests complete; a draining
//     server answers new requests 503.
//
// Workers come from the repo's batch-shaped common/ThreadPool: a dedicated
// dispatcher thread submits one RunShards batch whose shards are the
// long-lived worker loops, which turns the pool's N-way batch parallelism
// into N resident request executors without a second pool implementation.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/http_message.h"
#include "obs/registry.h"
#include "obs/request_log.h"
#include "obs/slo.h"
#include "obs/trace_propagation.h"
#include "serve/event_loop.h"

namespace sketchlink::obs {
class Tracer;
}  // namespace sketchlink::obs

namespace sketchlink::serve {

class Server {
 public:
  struct Options {
    EventLoop::Options loop;
    /// Worker parallelism (ThreadPool threads executing handlers).
    size_t num_workers = 4;
    /// Admission bound: requests queued but not yet executing. At capacity
    /// new requests get 429.
    size_t max_queue = 128;
    /// Deadline granted to a request with no X-Deadline-Ms header.
    uint64_t default_deadline_ms = 5'000;
    /// Upper clamp for client-requested deadlines.
    uint64_t max_deadline_ms = 30'000;
    /// Advisory Retry-After (seconds) attached to 429 responses.
    uint64_t retry_after_seconds = 1;
    /// When set, request/shed counters, queue gauges, and the request
    /// latency histogram register here (must outlive the server).
    obs::Registry* registry = nullptr;
    /// When set, every executed request runs under a "serve" root span and
    /// shed requests leave error-marked "shed_queue" / "shed_deadline" /
    /// "shed_draining" traces (must outlive the server). An incoming
    /// `traceparent` header is adopted: the request's root span records the
    /// client's trace identity, and a sampled remote parent bypasses head
    /// sampling so the server half of the trace always exists.
    obs::Tracer* tracer = nullptr;
    /// When set, every request outcome — served, shed, or unroutable —
    /// writes one structured line here (must outlive the server).
    obs::RequestLog* request_log = nullptr;
    /// SLO accounting knobs (window, objectives, latency threshold). The
    /// tracker itself always runs; gauges export when `registry` is set.
    obs::SloTracker::Options slo;
    /// Called once per shed with the index name captured by the route (""
    /// when unknown, e.g. while draining) and the reason ("queue_full",
    /// "deadline", "draining"). Runs on the loop thread or a worker; must
    /// be cheap and thread-safe. Lets the service attribute sheds to
    /// tenants without the server knowing what a tenant is.
    std::function<void(std::string_view index, std::string_view reason)>
        shed_observer;
  };

  /// One routed request: the HTTP request plus the values captured by
  /// {param} segments of the route pattern, in pattern order.
  struct Request {
    obs::HttpRequest http;
    std::vector<std::pair<std::string, std::string>> params;

    /// Value of route parameter `name`, or "" (params are validated by the
    /// route pattern, so absent means a handler bug, not client input).
    std::string_view Param(std::string_view name) const;
  };

  using Handler = std::function<obs::HttpResponse(const Request&)>;

  /// Point-in-time snapshot of the shedding counters (also exported via
  /// the registry; this is the lock-free test/bench view).
  struct Stats {
    uint64_t admitted = 0;
    uint64_t executed = 0;
    uint64_t shed_queue_full = 0;
    uint64_t shed_deadline = 0;
    uint64_t shed_draining = 0;
    uint64_t responses_2xx = 0;
    uint64_t responses_4xx = 0;
    uint64_t responses_5xx = 0;
  };

  explicit Server(const Options& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers `handler` for `method` requests matching `pattern`, a
  /// '/'-separated path where a "{name}" segment matches any single
  /// non-empty segment and captures it as a param. Patterns are matched in
  /// registration order; first match wins. Must be called before Start.
  void AddRoute(std::string method, std::string pattern, Handler handler);

  Status Start();

  /// Graceful drain: stop accepting, answer new requests on live
  /// connections with 503, execute everything already admitted, then stop
  /// the loop and join the workers. Idempotent; the destructor calls it.
  void Shutdown();

  uint16_t port() const { return loop_ != nullptr ? loop_->port() : 0; }
  bool running() const { return dispatcher_.joinable(); }
  Stats stats() const;

  /// Queue depth right now (tests and the list endpoint).
  size_t queue_depth() const;

  /// The server's SLO tracker (availability + latency burn rates).
  obs::SloTracker& slo() { return slo_; }

  /// Human-readable status block for /statusz: shed/response totals, queue
  /// depth, and the current SLO window with burn rates.
  std::string StatuszText();

 private:
  struct Route {
    std::string method;
    std::vector<std::string> segments;  // literal, or "{name}" captures
    Handler handler;
  };

  struct Work {
    uint64_t conn_id = 0;
    Request request;
    const Route* route = nullptr;
    uint64_t deadline_ns = 0;   // absolute, steady-clock nanoseconds
    uint64_t enqueued_ns = 0;
    obs::RemoteSpanRef remote;  // parsed traceparent (invalid when absent)
  };

  void OnRequest(uint64_t conn_id, obs::HttpRequest&& http);
  void WorkerLoop();
  /// Counts the response by status class and hands it (body moved, never
  /// copied) to the loop for writeout.
  void Respond(uint64_t conn_id, obs::HttpResponse response);
  /// One request-log line + SLO outcome for any terminal response path.
  void Account(const Request& request, int status, std::string_view shed_reason,
               uint64_t queue_nanos, uint64_t handler_nanos, uint64_t trace_id,
               uint64_t remote_trace_id, uint64_t response_bytes);
  const Route* MatchRoute(
      const std::string& method, const std::string& path,
      std::vector<std::pair<std::string, std::string>>* params,
      bool* path_known) const;
  uint64_t DeadlineFor(const obs::HttpRequest& http, uint64_t now_ms) const;

  Options options_;
  std::vector<Route> routes_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread dispatcher_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for work / stop
  std::condition_variable drain_cv_;  // Shutdown waits for quiescence
  std::deque<Work> queue_;
  size_t in_flight_ = 0;  // dequeued, handler still running
  bool draining_ = false;
  bool stopping_ = false;

  // Relaxed counters: exact totals, no ordering promises between them.
  obs::Counter admitted_;
  obs::Counter executed_;
  obs::Counter shed_queue_full_;
  obs::Counter shed_deadline_;
  obs::Counter shed_draining_;
  obs::Counter responses_2xx_;
  obs::Counter responses_4xx_;
  obs::Counter responses_5xx_;
  obs::StripedHistogram request_latency_nanos_;  // admission -> response
  obs::SloTracker slo_;
  std::vector<obs::Registration> registrations_;
};

/// Mounts the standard telemetry surface (obs::TelemetryHandlers: /metrics,
/// /metrics.json, /traces, /healthz and /statusz) as GET routes on
/// `server`. Call before Start; `registry` and `tracer` must outlive the
/// server, and `statusz_extra` (may be empty) is appended to /statusz.
void MountTelemetryRoutes(Server* server, obs::Registry* registry,
                          obs::Tracer* tracer,
                          std::function<std::string()> statusz_extra = {});

}  // namespace sketchlink::serve

#endif  // SKETCHLINK_SERVE_SERVER_H_
