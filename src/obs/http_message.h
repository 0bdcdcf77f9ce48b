#ifndef SKETCHLINK_OBS_HTTP_MESSAGE_H_
#define SKETCHLINK_OBS_HTTP_MESSAGE_H_

// HTTP/1.1 message plumbing for the tree's one HTTP stack: the server
// (serve::Server / serve::EventLoop) and its client (serve::ClientConnection).
// One request/response representation, one incremental parser, one
// serializer, and poll-bounded socket helpers. The types live in obs
// because the telemetry handlers (obs::TelemetryHandlers) take and return
// them without depending on the serving plane.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sketchlink::obs {

/// One parsed HTTP request. Header names are lower-cased at parse time;
/// values keep their bytes (leading/trailing whitespace trimmed).
struct HttpRequest {
  std::string method;  // "GET", "POST", "DELETE", ...
  std::string path;    // "/metrics" (query string stripped into `query`)
  std::string query;   // after '?', raw (see obs::QueryParams to parse)
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;    // Content-Length bytes (empty for bodyless requests)

  /// First value of header `name` (lower-case), or "" when absent.
  std::string_view Header(std::string_view name) const;
};

/// One HTTP response under construction. `headers` carries extra headers
/// (e.g. Retry-After) appended after the standard Content-Type /
/// Content-Length pair.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Standard reason phrase of `status` ("OK", "Too Many Requests", ...).
const char* HttpReasonPhrase(int status);

/// Renders the full wire bytes of `response`. `keep_alive` selects the
/// Connection header ("keep-alive" vs "close"); the serialization with no
/// extra headers and keep_alive=false is byte-identical to the historical
/// telemetry server output.
std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive);

/// Incremental request parser for one connection. Feed() raw bytes as they
/// arrive; once Done() the parsed request is available and any pipelined
/// surplus bytes can be reclaimed with TakeLeftover() before Reset().
///
/// Limits: the header block is capped at `max_head_bytes`, the body at
/// `max_body_bytes` (a Content-Length beyond it is rejected up front with
/// 413, without buffering; a chunked body is rejected mid-stream the moment
/// the declared chunks would cross the cap). Transfer-Encoding: chunked is
/// decoded (extensions and trailers consumed and discarded); any other
/// coding answers 501, and chunked + Content-Length together answer 400.
class HttpRequestParser {
 public:
  enum class State { kNeedMore, kComplete, kError };

  explicit HttpRequestParser(size_t max_head_bytes = 8 * 1024,
                             size_t max_body_bytes = 4 * 1024 * 1024);

  /// Appends `data` and advances the parse. Returns the new state; further
  /// Feed() calls after kComplete/kError are ignored (state is sticky until
  /// Reset).
  State Feed(std::string_view data);

  State state() const { return state_; }
  bool done() const { return state_ == State::kComplete; }

  /// The parsed request; valid once done().
  const HttpRequest& request() const { return request_; }
  HttpRequest& mutable_request() { return request_; }

  /// HTTP status to answer with when state() == kError (400/413/431/501).
  int error_status() const { return error_status_; }

  /// True when the peer may send another request on this connection
  /// (HTTP/1.1 without "Connection: close", or HTTP/1.0 with an explicit
  /// keep-alive). Valid once done().
  bool keep_alive() const { return keep_alive_; }

  /// True when at least one byte of the current request has been fed (used
  /// to distinguish an idle keep-alive connection from a stalled request).
  bool started() const {
    return headers_parsed_ || !buffer_.empty() || state_ != State::kNeedMore;
  }

  /// Bytes received beyond the parsed request (pipelining); valid once
  /// done(). Feed them back after Reset().
  std::string TakeLeftover();

  /// Clears all state for the next request on the same connection.
  void Reset();

 private:
  enum class ChunkPhase { kSize, kData, kDataEnd, kTrailers };

  State Fail(int status);
  State Advance();
  State AdvanceChunked();

  const size_t max_head_bytes_;
  const size_t max_body_bytes_;
  State state_ = State::kNeedMore;
  int error_status_ = 400;
  bool headers_parsed_ = false;
  bool keep_alive_ = false;
  size_t body_needed_ = 0;
  bool chunked_ = false;
  ChunkPhase chunk_phase_ = ChunkPhase::kSize;
  size_t chunk_remaining_ = 0;
  std::string buffer_;   // unparsed raw bytes (head, then body remainder)
  std::string leftover_;
  HttpRequest request_;
};

/// Sends all of `data`, polling for writability with a per-call deadline of
/// `timeout_ms` (0 = wait forever, the historical behavior). False on
/// error or timeout.
bool SendAllWithTimeout(int fd, const char* data, size_t size,
                        uint64_t timeout_ms);

/// Receives up to `size` bytes, polling up to `timeout_ms` for readability
/// first (0 = wait forever). Returns bytes read, 0 on orderly shutdown, -1
/// on error, -2 on timeout.
ssize_t RecvWithTimeout(int fd, char* buf, size_t size, uint64_t timeout_ms);

}  // namespace sketchlink::obs

#endif  // SKETCHLINK_OBS_HTTP_MESSAGE_H_
