#ifndef SKETCHLINK_SERVE_EVENT_LOOP_H_
#define SKETCHLINK_SERVE_EVENT_LOOP_H_

// Epoll reactor for the service plane: one loop thread multiplexing every
// client connection, so a slow or stalled peer costs one idle entry in the
// interest list instead of a wedged thread.
//
// Responsibilities are split with serve::Server:
//   - EventLoop owns sockets: accept, non-blocking reads through
//     HttpRequestParser, buffered non-blocking writes, keep-alive +
//     pipelining, per-connection idle/stall timeouts, parse-error replies.
//   - The consumer (Server) owns semantics: on every fully parsed request
//     the loop invokes `on_request(conn_id, request)` ON THE LOOP THREAD;
//     the consumer either answers inline or hands the request to a worker,
//     and eventually calls SendResponse(conn_id, ...) from ANY thread.
//
// While a request is executing the loop stops watching the connection for
// reads (EPOLLIN off), so a pipelining client cannot make the loop buffer
// unbounded requests; its bytes sit in the kernel socket buffer until the
// response is written. Connection ids are monotonically increasing and
// never reused, so a worker finishing against a connection that has since
// closed is a harmless no-op (no fd ABA).

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/http_message.h"

namespace sketchlink::serve {

class EventLoop {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral, see port()
    bool reuse_address = false;
    /// A connection mid-request or mid-response with no socket progress for
    /// this long is timed out (408 when a request had started; silent close
    /// otherwise). 0 disables.
    uint64_t io_timeout_ms = 10'000;
    /// An idle keep-alive connection (no request in progress) is closed
    /// after this long. 0 disables.
    uint64_t idle_timeout_ms = 60'000;
    size_t max_head_bytes = 16 * 1024;
    size_t max_body_bytes = 8 * 1024 * 1024;
    /// Accept backlog.
    int listen_backlog = 128;
  };

  /// Called on the loop thread for every complete request.
  using RequestHandler =
      std::function<void(uint64_t conn_id, obs::HttpRequest&& request)>;

  explicit EventLoop(const Options& options, RequestHandler on_request);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds + listens + starts the loop thread.
  Status Start();

  /// Stops accepting new connections; established connections keep being
  /// served (used as phase one of a graceful drain). Callable from any
  /// thread; idempotent.
  void StopAccepting();

  /// Closes everything and joins the loop thread. Connections still open
  /// are dropped. Idempotent.
  void Stop();

  /// Completes the request executing on `conn_id`: queues the serialized
  /// response for non-blocking writeout and (once drained) resumes reading
  /// when both sides want keep-alive, else closes. Thread-safe. Unknown /
  /// already-closed conn ids are ignored.
  void SendResponse(uint64_t conn_id, obs::HttpResponse response,
                    bool close_after = false);

  bool running() const { return loop_thread_.joinable(); }
  uint16_t port() const { return port_; }

  /// Number of currently open client connections (loop-thread maintained,
  /// read with a lock; for tests and stats).
  size_t num_connections() const;

 private:
  enum class ConnState {
    kReading,    // EPOLLIN armed, feeding the parser
    kExecuting,  // request handed to the consumer; not watching reads
    kWriting,    // EPOLLOUT armed, draining out_buffer
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    ConnState state = ConnState::kReading;
    obs::HttpRequestParser parser;
    std::string out_buffer;
    size_t out_written = 0;
    bool close_after_write = false;
    uint64_t last_activity_ms = 0;

    Connection(size_t max_head, size_t max_body)
        : parser(max_head, max_body) {}
  };

  struct Command {
    uint64_t conn_id;
    obs::HttpResponse response;
    bool close_after;
  };

  void Run();
  void AcceptReady();
  void ReadReady(Connection* conn);
  void WriteReady(Connection* conn);
  /// Parses buffered bytes; dispatches at most one request. Returns false
  /// when the connection was closed.
  bool AdvanceParser(Connection* conn, std::string_view data);
  void StartResponse(Connection* conn, const obs::HttpResponse& response,
                     bool close_after);
  void FinishWrite(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void SweepTimeouts();
  void DrainCommands();
  void Wake();
  void UpdateEpoll(Connection* conn, uint32_t events);

  Options options_;
  RequestHandler on_request_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::thread loop_thread_;
  bool accepting_ = false;  // loop thread only (after Start)

  mutable std::mutex mu_;
  uint64_t next_conn_id_ = 1;                       // loop thread only
  std::unordered_map<uint64_t, Connection*> conns_;  // guarded by mu_
  std::vector<Command> commands_;                    // guarded by mu_
  bool stop_requested_ = false;                      // guarded by mu_
  bool stop_accepting_requested_ = false;            // guarded by mu_
};

}  // namespace sketchlink::serve

#endif  // SKETCHLINK_SERVE_EVENT_LOOP_H_
